"""The prefetcher-policy tournament in-process: every registered policy
competes exactly once per workload, the ranking is ordered by mean
speedup, and the rendered table is byte-identical whether the cells ran
cold, replayed from a warm cache, or ran on killed-and-retried workers."""

from __future__ import annotations

import pytest

from repro.faults.chaos import ChaosPlan
from repro.harness.cache import ResultCache
from repro.harness.engine import ExperimentEngine
from repro.harness.experiments import (
    FIGURES,
    ranking,
    run_figure,
    tournament_contenders,
)
from repro.harness.journal import JobJournal
from repro.hwprefetch.zoo import zoo_names

WORKLOADS = ["art", "dot"]
BUDGET = 3_000
WARMUP = 500


def _tournament(engine):
    return run_figure(
        FIGURES["tournament"], workloads=WORKLOADS, max_instructions=BUDGET,
        warmup=WARMUP, engine=engine,
    )


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Cold, warm and chaos-disturbed runs of the same tournament."""
    root = tmp_path_factory.mktemp("tournament")
    cache = ResultCache(root / "cache")
    cold_engine = ExperimentEngine(cache=cache)
    cold = _tournament(cold_engine)
    warm_engine = ExperimentEngine(cache=cache)
    warm = _tournament(warm_engine)
    chaos_engine = ExperimentEngine(
        cache=ResultCache(root / "chaos-cache"), workers=2,
        journal=JobJournal(root / "journal"),
        chaos=ChaosPlan(seed=7, kill_rate=0.2),
    )
    chaotic = _tournament(chaos_engine)
    return {
        "cold": (cold, cold_engine),
        "warm": (warm, warm_engine),
        "chaos": (chaotic, chaos_engine),
    }


def test_every_contender_competes_once_per_workload(runs):
    result, _engine = runs["cold"]
    contenders = tournament_contenders()
    assert set(zoo_names()) <= set(contenders)
    assert len(set(contenders)) == len(contenders)
    assert [cell.key for cell in result.cells] == contenders
    assert not result.errors, result.errors
    assert [row["workload"] for row in result.rows] == WORKLOADS
    for row in result.rows:
        # Dict keys are unique, so equal key lists prove each contender
        # ran exactly once on this workload.
        assert sorted(row["ipc"]) == sorted(contenders)
        assert sorted(row["speedup"]) == sorted(contenders)


def test_ranking_is_sorted_by_mean_speedup(runs):
    result, _engine = runs["cold"]
    ranked = ranking(result)
    assert sorted(e["policy"] for e in ranked) == sorted(
        tournament_contenders()
    )
    speedups = [entry["mean_speedup"] for entry in ranked]
    assert speedups == sorted(speedups, reverse=True)


def test_render_identical_cold_warm_and_under_chaos(runs):
    cold, cold_engine = runs["cold"]
    warm, warm_engine = runs["warm"]
    chaotic, chaos_engine = runs["chaos"]
    jobs = len(WORKLOADS) * len(tournament_contenders())
    assert cold_engine.stats.jobs_run == jobs
    assert warm_engine.stats.jobs_run == 0
    assert warm_engine.stats.jobs_cached == jobs
    assert chaos_engine.chaos.kills_injected >= 1
    assert chaos_engine.stats.jobs_failed == 0
    assert warm.render() == cold.render()
    assert chaotic.render() == cold.render()


def test_cli_figure_tournament(tmp_path, monkeypatch, capsys):
    from repro.__main__ import _FIGURE_NAMES, main

    assert _FIGURE_NAMES["tournament"] is FIGURES["tournament"]
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    rc = main([
        "figure", "tournament", "--workloads", "art",
        "--instructions", "2000", "--warmup", "200",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    for policy in tournament_contenders():
        assert policy in out
