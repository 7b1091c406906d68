"""Checkpoint resume — ascending budget sweeps pay only the delta.

The tentpole claim of the checkpoint subsystem: a sweep that asks for
ascending measured budgets B, 2B, 3B of the same cell costs one warmup
plus 3B measured instructions when the engine resumes from end-of-run
snapshots, versus three warmups plus 6B cold.  That is a ~2.6x
instruction-count reduction; this bench holds the realized wall-clock to
at most 50% of cold and re-checks on every cell that the resumed payload
is byte-identical to the cold one, so the speedup can never come at the
price of divergence.  Capture and restore eat little of the margin: a
snapshot refers to the workload's shared memory image and program
instead of pickling them, so it carries only the run's own state
(tens of KB, milliseconds of pickling and zlib).
"""

import json
import time

from bench_output import write_bench_record
from conftest import shapes_asserted

from repro.config import PrefetchPolicy
from repro.harness.engine import ExperimentEngine, make_job
from repro.harness.experiments import (
    SWEEP_WORKLOADS,
    bench_instructions,
    bench_warmup,
    bench_workloads,
)

MAX_RESUMED_FRACTION = 0.50

POLICY = PrefetchPolicy.SELF_REPAIRING


def _budgets():
    top = bench_instructions()
    return [max(1, top * step // 3) for step in (1, 2, 3)]


def _jobs(workload):
    return [
        make_job(
            workload,
            policy=POLICY,
            max_instructions=budget,
            warmup_instructions=bench_warmup(),
        )
        for budget in _budgets()
    ]


def run_checkpoint_bench(tmp_root):
    """Times the same ascending sweep cold and checkpointed.

    Both sides run with the result cache off (a cache hit would time
    replay, not simulation); the checkpointed side gets a fresh store
    under ``tmp_root`` so every resume observed here was produced by
    this very sweep.
    """
    from repro.checkpoint import CheckpointStore

    workloads = bench_workloads(SWEEP_WORKLOADS)[:2]
    rows = []
    for workload in workloads:
        cold_engine = ExperimentEngine(cache=None, checkpoints=None)
        start = time.perf_counter()
        cold = cold_engine.run(_jobs(workload), isolate=False)
        cold_s = time.perf_counter() - start

        store = CheckpointStore(tmp_root / workload)
        warm_engine = ExperimentEngine(cache=None, checkpoints=store)
        start = time.perf_counter()
        warm = warm_engine.run(_jobs(workload), isolate=False)
        warm_s = time.perf_counter() - start

        resumed = sum(
            1 for outcome in warm if outcome.resumed_from is not None
        )
        for cold_outcome, warm_outcome in zip(cold, warm):
            cold_payload = json.dumps(cold_outcome.result.to_dict())
            warm_payload = json.dumps(warm_outcome.result.to_dict())
            assert cold_payload == warm_payload, (
                f"resumed run diverged from cold on {workload} at "
                f"{warm_outcome.result.instructions} instructions"
            )
        rows.append((workload, cold_s, warm_s, resumed))
    return rows


def render(rows):
    budgets = ", ".join(f"{b:,}" for b in _budgets())
    lines = [
        "Checkpoint resume: ascending budget sweep, cold vs resumed",
        f"(budgets: {budgets} measured + {bench_warmup():,} warmup; "
        "payload equality asserted per cell)",
        "",
        f"{'workload':<10} {'cold (s)':>9} {'resumed (s)':>12} "
        f"{'fraction':>9} {'resumes':>8}",
    ]
    for workload, cold_s, warm_s, resumed in rows:
        lines.append(
            f"{workload:<10} {cold_s:>9.2f} {warm_s:>12.2f} "
            f"{warm_s / cold_s:>8.1%} {resumed:>8d}"
        )
    total_cold = sum(r[1] for r in rows)
    total_warm = sum(r[2] for r in rows)
    lines.append("")
    lines.append(
        f"sweep total: {total_warm:.2f}s resumed vs {total_cold:.2f}s "
        f"cold = {total_warm / total_cold:.1%} "
        f"(gate: <={MAX_RESUMED_FRACTION:.0%})"
    )
    return "\n".join(lines)


def test_checkpoint_resume_speedup(benchmark, report, tmp_path):
    rows = benchmark.pedantic(
        run_checkpoint_bench, args=(tmp_path,), iterations=1, rounds=1
    )
    report("checkpoint_resume", render(rows))
    total_cold = sum(r[1] for r in rows)
    total_warm = sum(r[2] for r in rows)
    wall_times = {}
    for workload, cold_s, warm_s, _resumed in rows:
        wall_times[f"{workload}/cold"] = cold_s
        wall_times[f"{workload}/resumed"] = warm_s
    write_bench_record(
        "checkpoint_resume",
        wall_times_s=wall_times,
        speedup=total_cold / total_warm,
        extra={
            "budgets": _budgets(),
            "resumes": sum(r[3] for r in rows),
            "gate_max_fraction": MAX_RESUMED_FRACTION,
        },
    )
    assert all(r[3] >= 2 for r in rows), (
        "every ascending sweep should resume its two longer budgets"
    )
    if not shapes_asserted():
        return  # tiny smoke budgets: constant overheads dominate
    fraction = total_warm / total_cold
    assert fraction <= MAX_RESUMED_FRACTION, (
        f"resumed sweep took {fraction:.1%} of cold wall time "
        f"(gate: <={MAX_RESUMED_FRACTION:.0%})"
    )
