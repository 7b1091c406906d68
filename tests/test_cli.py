"""Tests for the ``python -m repro`` command-line interface."""

import json
import pathlib
import re

import pytest

from repro.__main__ import main

SAMPLE_TRACE = (
    pathlib.Path(__file__).resolve().parents[1]
    / "examples" / "traces" / "sample_loop.champsim.gz"
)


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("applu", "mcf", "wupwise"):
            assert name in out

    def test_run(self, capsys):
        code = main(
            ["run", "swim", "--instructions", "8000", "--warmup", "0"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "IPC" in out
        assert "load outcomes" in out
        assert "swim" in out

    def test_run_policy_choice(self, capsys):
        code = main(
            [
                "run", "swim", "--policy", "none",
                "--instructions", "5000", "--warmup", "0",
            ]
        )
        assert code == 0
        assert "none" in capsys.readouterr().out

    def test_figure(self, capsys):
        code = main(
            [
                "figure", "2", "--workloads", "swim",
                "--instructions", "8000", "--warmup", "0",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 2" in out
        assert "swim" in out

    def test_no_fast_figure_matches_fast_without_sharing_cache(
        self, capsys, tmp_path, monkeypatch
    ):
        """``--no-fast`` reaches the engine: over a builtin, a generated
        scenario file and the sample ChampSim trace the reference
        interpreter prints the fast table, and it re-simulates every
        cell because ``fast`` is part of the result-cache key, while a
        fast ``run`` of one cell replays the figure's cache entry."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        out_dir = tmp_path / "generated"
        assert main([
            "scenarios", "generate", "--seed", "7", "--count", "1",
            "--out-dir", str(out_dir),
        ]) == 0
        (spec,) = sorted(out_dir.glob("*.json"))
        refs = ",".join([
            "art", f"scenario:{spec}",
            f"trace:{SAMPLE_TRACE}",
        ])
        args = [
            "figure", "5", "--workloads", refs,
            "--instructions", "2000", "--warmup", "200",
        ]
        capsys.readouterr()
        assert main(args) == 0
        fast = capsys.readouterr().out
        # ``run --trace`` on the same cell replays the figure's entry.
        assert main([
            "run", "--trace", str(SAMPLE_TRACE),
            "--instructions", "2000", "--warmup", "200",
        ]) == 0
        assert "result replayed from cache" in capsys.readouterr().err
        assert main(args + ["--no-fast"]) == 0
        slow = capsys.readouterr()
        assert slow.out == fast
        assert re.search(r"engine: run=[1-9][0-9]* cached=0", slow.err)

    def test_checkpoint_dir_resumes_to_the_cold_table(
        self, capsys, tmp_path
    ):
        """A short pass stores snapshots under ``--checkpoint-dir``; the
        longer pass resumes them and prints the cold table (the result
        cache is off, so a replay cannot pass for a resume)."""
        args = ["figure", "7", "--workloads", "art", "--warmup", "200",
                "--no-cache"]
        ckpt = ["--checkpoint-dir", str(tmp_path / "ckpts")]
        capsys.readouterr()
        assert main(args + ["--instructions", "3000"]) == 0
        cold = capsys.readouterr().out
        assert main(args + ["--instructions", "1500"] + ckpt) == 0
        capsys.readouterr()
        assert main(args + ["--instructions", "3000"] + ckpt) == 0
        resumed = capsys.readouterr()
        assert resumed.out == cold
        assert re.search(r"engine: .*resumed=[1-9]", resumed.err)

    def test_run_export_matches_the_engine_run(self, capsys, tmp_path):
        """``--trace-out`` runs the same job in-process with an observer
        attached: its ``--json`` payload equals an uncached engine run
        of that job, and the JSONL trace holds events."""
        args = [
            "run", "--scenario", "stride-flip", "--instructions", "3000",
            "--warmup", "500", "--json",
        ]
        capsys.readouterr()
        assert main(args + ["--no-cache"]) == 0
        plain = json.loads(capsys.readouterr().out)
        trace = tmp_path / "t.jsonl"
        assert main(args + ["--trace-out", str(trace)]) == 0
        assert json.loads(capsys.readouterr().out) == plain
        assert trace.read_text().strip()

    def test_unknown_workload_rejected(self, capsys):
        # Free-form refs (scenario:/trace:) mean the parser cannot use
        # choices=; unknown names fail as a clean ConfigError exit.
        assert main(["run", "nonesuch"]) == 2
        err = capsys.readouterr().err
        assert "unknown workload 'nonesuch'" in err

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure", "42"])


class TestCacheCLI:
    def test_stats_and_prune_cover_every_file_under_the_root(
        self, tmp_path, capsys
    ):
        """Quarantined files and the temps a killed writer leaves behind
        are counted by ``stats`` and deleted by ``prune`` like entries."""
        root = tmp_path / "cache"
        for name, data in {
            "results/ab/ab01.json": b"{}",
            "checkpoints/cd/cdef/0000000000000100.ckpt": b"x" * 64,
            "quarantine/ab02.json": b"garbage",
            "results/ab/.ab03.json.tmp.1.2.3": b"half-written",
        }.items():
            path = root / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(data)
        cache = ["cache", "--dir", str(root)]

        assert main(cache + ["stats"]) == 0
        out = capsys.readouterr().out
        assert "results (1 entries)" in out
        assert "checkpoints (1 entries)" in out
        assert "quarantine (1 entries)" in out
        assert re.search(r"^total\s+85 bytes \(4 entries\)$", out, re.M)

        assert main(cache + ["prune", "--max-bytes", "0"]) == 0
        out = capsys.readouterr().out
        assert "pruned 4 files (85 bytes)" in out
        assert re.search(r"^total\s+0 bytes", out, re.M)
        assert [p for p in root.rglob("*") if p.is_file()] == []


class TestFleetTelemetryCLI:
    ARGS = [
        "figure", "2", "--workloads", "swim",
        "--instructions", "8000", "--warmup", "0",
    ]

    def test_summary_rides_fleet_gauges(self, capsys, tmp_path):
        code = main(self.ARGS + ["--journal-dir", str(tmp_path / "j")])
        assert code == 0
        err = capsys.readouterr().err
        assert "engine: run=" in err
        assert "cached=" in err and "reclaimed=" in err

    def test_quiet_silences_the_summary(self, capsys, tmp_path):
        code = main(
            ["--quiet"]
            + self.ARGS
            + ["--journal-dir", str(tmp_path / "j")]
        )
        assert code == 0
        assert capsys.readouterr().err == ""

    def test_figure_trace_out_writes_valid_fleet_trace(
        self, capsys, tmp_path
    ):
        import json

        from repro.obs.export import validate_chrome_trace

        trace = tmp_path / "fleet.json"
        code = main(self.ARGS + ["--refresh", "--trace-out", str(trace)])
        assert code == 0
        payload = json.loads(trace.read_text())
        assert validate_chrome_trace(payload) == []
        assert payload["metadata"]["figure"] == "2"
        names = {e["name"] for e in payload["traceEvents"]}
        assert "run" in names and "commit" in names

    def test_fleet_status_reads_live_feed(self, capsys, tmp_path):
        journal_dir = tmp_path / "j"
        assert main(self.ARGS + ["--journal-dir", str(journal_dir)]) == 0
        capsys.readouterr()
        code = main(["fleet", "status", "--journal-dir", str(journal_dir)])
        assert code == 0
        out = capsys.readouterr().out
        assert "sweep" in out
        assert "jobs" in out
        assert "engine: run=" in out

    def test_fleet_status_without_feed_errors(self, capsys, tmp_path):
        code = main(
            ["fleet", "status", "--journal-dir", str(tmp_path / "empty")]
        )
        assert code == 2
        assert "no telemetry" in capsys.readouterr().err
