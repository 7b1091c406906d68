"""Perf-trend gate: history parsing, series keying, regression math."""

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

_TOOLS = pathlib.Path(__file__).resolve().parent.parent / "tools"
if str(_TOOLS) not in sys.path:
    sys.path.insert(0, str(_TOOLS))

import bench_trend  # noqa: E402
import bench_output  # noqa: E402  (bench_trend puts benchmarks/ on the path)


def _record(speedup=None, walls=None, instructions=8000, warmup=2000):
    record = {
        "bench": "interp_fastpath",
        "budget": {"instructions": instructions, "warmup": warmup},
        "recorded_at": "2026-08-08T00:00:00+00:00",
        "git_rev": "abc1234",
    }
    if speedup is not None:
        record["speedup"] = speedup
    if walls is not None:
        record["wall_times_s"] = walls
    return record


def _history(tmp_path, records):
    path = tmp_path / "history.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")
    return str(path)


class TestHeadline:
    def test_speedup_preferred_higher_is_better(self):
        metric, value, higher = bench_trend._headline(
            _record(speedup=2.5, walls={"a": 9.0})
        )
        assert (metric, value, higher) == ("speedup", 2.5, True)

    def test_wall_time_fallback_lower_is_better(self):
        metric, value, higher = bench_trend._headline(
            _record(walls={"a": 1.0, "b": 2.0})
        )
        assert (metric, value, higher) == ("wall_s", 3.0, False)


class TestRegressionMath:
    def test_higher_is_better_drop_is_positive(self):
        assert bench_trend._regression(1.5, 2.0, True) == pytest.approx(
            0.25
        )

    def test_lower_is_better_rise_is_positive(self):
        assert bench_trend._regression(3.0, 2.0, False) == pytest.approx(
            0.5
        )

    def test_zero_best_never_divides(self):
        assert bench_trend._regression(1.0, 0.0, True) == 0.0


class TestSeriesKeying:
    def test_smoke_and_full_budgets_never_compared(self, tmp_path):
        """An 8k smoke run must not gate a 120k full run."""
        history = _history(tmp_path, [
            _record(speedup=2.0, instructions=8000),
            _record(speedup=0.5, instructions=120_000),
        ])
        series = bench_trend._load_series(history)
        assert len(series) == 2
        code = bench_trend.main(["--history", history, "check"])
        assert code == 0  # no series has two records: nothing gated


class TestCheckGate:
    def test_regression_beyond_threshold_fails(self, tmp_path, capsys):
        history = _history(tmp_path, [
            _record(speedup=2.0), _record(speedup=1.0),
        ])
        code = bench_trend.main(["--history", history, "check"])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_within_threshold_passes(self, tmp_path, capsys):
        history = _history(tmp_path, [
            _record(speedup=2.0), _record(speedup=1.9),
        ])
        code = bench_trend.main(["--history", history, "check"])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_improvement_passes(self, tmp_path):
        history = _history(tmp_path, [
            _record(speedup=2.0), _record(speedup=3.0),
        ])
        assert bench_trend.main(["--history", history, "check"]) == 0

    def test_report_only_notes_but_exits_zero(self, tmp_path, capsys):
        history = _history(tmp_path, [
            _record(speedup=2.0), _record(speedup=0.5),
        ])
        code = bench_trend.main(
            ["--history", history, "check", "--report-only"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "FAIL" in out and "not failing" in out

    def test_gate_uses_best_not_previous(self, tmp_path, capsys):
        """A slow middle run must not lower the bar."""
        history = _history(tmp_path, [
            _record(speedup=2.0),
            _record(speedup=0.5),
            _record(speedup=1.0),  # better than previous, worse than best
        ])
        code = bench_trend.main(["--history", history, "check"])
        assert code == 1
        assert "best 2.0000" in capsys.readouterr().out


def _paired(speedup, bench="perfbench_fig5"):
    """A perfbench record: ``speedup`` is the change over its parent,
    measured in alternating pairs."""
    record = _record(speedup=speedup, instructions=100_000, warmup=50_000)
    record["bench"] = bench
    record["end_to_end"] = {
        "sim_kips": {
            "parent_q1_med_q3": [99.0, 100.0, 101.0],
            "change_q1_med_q3": [
                99.0 * speedup, 100.0 * speedup, 101.0 * speedup,
            ],
        },
    }
    return record


class TestPairedRecords:
    """A paired record is judged on its own ratio against its parent."""

    def test_neutral_change_after_a_fast_one_passes(self, tmp_path, capsys):
        history = _history(tmp_path, [_paired(2.5), _paired(0.99)])
        assert bench_trend.main(["--history", history, "check"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "vs parent 1.0000" in out
        assert "-1.0%" in out

    def test_slower_than_its_parent_fails(self, tmp_path, capsys):
        history = _history(tmp_path, [_paired(0.7)])
        assert bench_trend.main(["--history", history, "check"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_report_compares_with_the_parent(self, tmp_path, capsys):
        history = _history(tmp_path, [_paired(1.2), _paired(1.05)])
        assert bench_trend.main(["--history", history, "report"]) == 0
        assert "latest vs parent: 1.0500 vs 1.0000 (+5.0%)" in (
            capsys.readouterr().out
        )

    def test_unpaired_series_ignore_paired_records(self, tmp_path, capsys):
        history = _history(tmp_path, [
            _paired(3.0, bench="interp_fastpath"),
            _record(speedup=2.0, instructions=100_000, warmup=50_000),
            _record(speedup=1.9, instructions=100_000, warmup=50_000),
        ])
        assert bench_trend.main(["--history", history, "check"]) == 0
        assert "vs best 2.0000" in capsys.readouterr().out

    def test_lone_unpaired_record_has_no_verdict(self, tmp_path, capsys):
        history = _history(tmp_path, [_record(speedup=0.1)])
        assert bench_trend.main(["--history", history, "check"]) == 0
        assert "nothing to compare" in capsys.readouterr().out


class TestReport:
    def test_report_shows_trend_and_delta(self, tmp_path, capsys):
        history = _history(tmp_path, [
            _record(speedup=2.0), _record(speedup=2.2),
        ])
        assert bench_trend.main(["--history", history, "report"]) == 0
        out = capsys.readouterr().out
        assert "interp_fastpath @ 8,000+2,000" in out
        assert "2 run(s)" in out
        assert "latest vs best-so-far" in out

    def test_empty_history_reports_cleanly(self, tmp_path, capsys):
        history = str(tmp_path / "missing.jsonl")
        assert bench_trend.main(["--history", history, "report"]) == 0
        assert "no bench history" in capsys.readouterr().out

    def test_torn_history_line_is_skipped(self, tmp_path):
        history = _history(tmp_path, [_record(speedup=2.0)])
        with open(history, "a", encoding="utf-8") as fh:
            fh.write('{"bench": "interp_fa')  # torn mid-write
        series = bench_trend._load_series(history)
        [records] = series.values()
        assert len(records) == 1


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
class TestGitRev:
    def test_dirty_tree_is_not_stamped_as_head(self, tmp_path, monkeypatch):
        """A record from an uncommitted tree says so; the history file
        itself changing does not make the tree dirty."""
        def git(*args):
            subprocess.run(
                ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                cwd=tmp_path, check=True, capture_output=True,
            )

        results = tmp_path / "benchmarks" / "results"
        results.mkdir(parents=True)
        history = results / "BENCH_history.jsonl"
        source = tmp_path / "src.py"
        history.write_text("")
        source.write_text("x = 1\n")
        git("init", "-q")
        git("add", "-A")
        git("commit", "-q", "-m", "seed")
        monkeypatch.setattr(bench_output, "RESULTS_DIR", results)

        head = bench_output._git_rev()
        assert head and not head.endswith("-dirty")
        history.write_text("{}\n")
        assert bench_output._git_rev() == head
        source.write_text("x = 2\n")
        assert bench_output._git_rev() == head + "-dirty"
