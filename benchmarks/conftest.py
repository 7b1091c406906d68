"""Shared bench plumbing.

Every bench regenerates one paper table/figure: it runs the corresponding
``FIGURES`` spec from :mod:`repro.harness.experiments`, prints the
paper-style table (through capture-disabled output so it survives
pytest's capture), and writes it to ``benchmarks/results/<name>.txt``.

Budgets honour the environment knobs::

    REPRO_BENCH_INSTRUCTIONS   measured instructions per run (default 120k)
    REPRO_BENCH_WARMUP         warmup instructions per run   (default 200k)
    REPRO_BENCH_WORKLOADS      comma-separated subset of benchmarks
    REPRO_BENCH_JOBS           experiment-engine worker processes (default 1)

The sensitivity sweeps (Figures 7/8), the ablations and the resilience
study default to their spec's representative workload subset; export
REPRO_BENCH_WORKLOADS to widen.

Every bench routes its simulations through one shared
:class:`repro.harness.engine.ExperimentEngine` (the ``engine`` fixture),
so the HW_ONLY baselines the figures have in common are simulated once
per budget and replayed from the content-addressed cache everywhere else.
"""

from __future__ import annotations

import os
import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def bench_jobs() -> int:
    """Worker-process count for the experiment engine."""
    raw = os.environ.get("REPRO_BENCH_JOBS", "")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


@pytest.fixture(scope="session")
def engine():
    """One experiment engine for the whole bench session: shared result
    cache, shared worker pool size, cumulative stats."""
    from repro.harness.engine import ExperimentEngine

    eng = ExperimentEngine(workers=bench_jobs())
    yield eng
    print(f"\n{eng.stats.summary()}")


def shapes_asserted() -> bool:
    """Shape assertions only hold at realistic budgets; tiny smoke runs
    (small REPRO_BENCH_INSTRUCTIONS) regenerate the tables without them."""
    from repro.harness.experiments import bench_instructions, bench_warmup

    return bench_instructions() >= 60_000 and bench_warmup() >= 100_000


@pytest.fixture
def report(capfd):
    """Print a rendered table through the capture and save it to disk."""

    def emit(name: str, text: str) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        with capfd.disabled():
            print()
            print(text)

    return emit


@pytest.fixture
def bench_figure(benchmark, report, engine):
    """``bench_figure(name)``: run one ``FIGURES`` entry once under the
    benchmark timer on the shared engine, report its table, return it."""
    from repro.harness.experiments import FIGURES, run_figure

    def run(name: str):
        result = benchmark.pedantic(
            run_figure, args=(FIGURES[name],), kwargs={"engine": engine},
            iterations=1, rounds=1,
        )
        report(name, result.render())
        return result

    return run
