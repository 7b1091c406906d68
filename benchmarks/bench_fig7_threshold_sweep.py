"""Figure 7 — sensitivity to the DLT monitoring window and miss-rate
threshold.

Paper: a 3% miss-rate threshold over a 256-access window works best; too
small a threshold over-prefetches, too big misses delinquent loads.
Runs a representative workload subset (REPRO_BENCH_WORKLOADS widens it).

This bench doubles as the result cache's acceptance gauntlet: the sweep
runs twice against a private cold cache, and the warm pass — every one
of the grid's simulations replayed from disk — must finish in a quarter
of the cold serial wall time.
"""

import time

from conftest import shapes_asserted

from repro.harness.cache import ResultCache
from repro.harness.engine import ExperimentEngine
from repro.harness.experiments import FIGURES, run_figure


def test_fig7_threshold_sweep(benchmark, report, tmp_path):
    cache = ResultCache(tmp_path / "cache")
    figure = FIGURES["fig7_threshold_sweep"]

    def cold_then_warm():
        cold_engine = ExperimentEngine(cache=cache)
        started = time.perf_counter()
        cold = run_figure(figure, engine=cold_engine)
        cold_s = time.perf_counter() - started

        warm_engine = ExperimentEngine(cache=cache)
        started = time.perf_counter()
        warm = run_figure(figure, engine=warm_engine)
        warm_s = time.perf_counter() - started
        return cold, warm, cold_s, warm_s, warm_engine.stats

    cold, warm, cold_s, warm_s, warm_stats = benchmark.pedantic(
        cold_then_warm, iterations=1, rounds=1
    )
    report("fig7_threshold_sweep", cold.render())
    print(
        f"\nfig7 cold serial: {cold_s:.2f}s, warm cache: {warm_s:.2f}s "
        f"({warm_s / cold_s:.1%} of cold)"
    )
    assert not cold.errors, cold.errors
    # The warm pass must be replay, not simulation ...
    assert warm_stats.jobs_run == 0, "warm pass re-simulated"
    assert warm.rows == cold.rows
    if not shapes_asserted():
        return
    # ... and at realistic budgets replay must win by at least 4x.
    assert warm_s <= 0.25 * cold_s, (
        f"warm cache {warm_s:.2f}s > 25% of cold serial {cold_s:.2f}s"
    )
