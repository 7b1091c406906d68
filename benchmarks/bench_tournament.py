"""Policy tournament — every contender on every workload, ranked.

Runs the full tournament arena (all builtin benchmarks plus the curated
DSL scenarios) across the three software policies and every registered
hardware-prefetcher zoo engine, renders the ranked table, and writes the
machine-readable record to ``results/BENCH_tournament.json`` (plus the
longitudinal history feed).  The shape gate checks structure (complete
coverage, deterministic ranking) and the adaptivity headline: the
self-repairing software prefetcher outranks every zoo hardware engine.
"""

import time

from bench_output import write_bench_record
from conftest import shapes_asserted

from repro.harness.experiments import (
    FIGURES,
    ranking,
    run_figure,
    tournament_contenders,
)


def run_tournament(engine):
    start = time.perf_counter()
    result = run_figure(FIGURES["tournament"], engine=engine)
    return result, time.perf_counter() - start


def test_tournament(benchmark, report, engine):
    result, wall_s = benchmark.pedantic(
        run_tournament, kwargs={"engine": engine}, iterations=1, rounds=1
    )
    report("tournament", result.render())
    ranked = ranking(result)
    write_bench_record(
        "tournament",
        wall_times_s={"tournament": wall_s},
        speedup=ranked[0]["mean_speedup"] if ranked else None,
        extra={
            "contenders": tournament_contenders(),
            "workloads": [r["workload"] for r in result.rows],
            "ranking": ranked,
            "rows": result.rows,
            "errors": result.errors,
        },
    )
    # Structure holds at any budget: full coverage, complete ranking.
    contenders = set(tournament_contenders())
    assert result.rows, "tournament produced no surviving workloads"
    for row in result.rows:
        assert set(row["speedup"]) == contenders
    assert {entry["policy"] for entry in ranked} == contenders
    if not shapes_asserted():
        return  # tiny smoke budgets: ratios are all noise
    by_policy = {e["policy"]: e["mean_speedup"] for e in ranked}
    zoo = {
        name: spd for name, spd in by_policy.items()
        if name not in ("hw_only", "basic", "self_repairing")
    }
    assert zoo, "no zoo engines competed"
    assert all(
        by_policy["self_repairing"] > spd for spd in zoo.values()
    ), "a zoo hardware engine outranked the self-repairing prefetcher"
