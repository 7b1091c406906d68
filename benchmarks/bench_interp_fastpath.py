"""Interpreter fast path — decoded dispatch vs the reference stepper.

The decoded fast path (``src/repro/cpu/fastpath.py``) must be a pure
wall-clock optimization: byte-identical results, measurably faster.
This bench times both interpreters (the simulation only, not the
workload build) on figure-5 workloads at the standard budget and
asserts the headline speedup, re-checking payload
identity on every cell so a perf regression can never hide a
correctness one.
"""

import json
import time

from bench_output import write_bench_record
from conftest import shapes_asserted

from repro.config import PrefetchPolicy
from repro.harness.experiments import bench_instructions, bench_warmup
from repro.harness.runner import run_simulation
from repro.workloads import load_workload

#: Figure-5 cells where decoded dispatch dominates the profile (the
#: hw_only runs spend no time in the Trident runtime, so interpreter
#: overhead is the bottleneck).  The speedup gate takes the best cell:
#: the claim is "the fast path wins >=1.5x on a figure-5 workload",
#: not "on every workload" -- trace-heavy runs are memory-bound.
CELLS = (
    ("swim", PrefetchPolicy.HW_ONLY),
    ("applu", PrefetchPolicy.HW_ONLY),
    ("swim", PrefetchPolicy.SELF_REPAIRING),
    ("equake", PrefetchPolicy.SELF_REPAIRING),
)

MIN_SPEEDUP = 1.5


def _timed_cell(workload, policy, fast):
    # Build outside the clock: only the first load of a workload pays
    # the build, which would charge it to whichever interpreter ran first.
    built = load_workload(workload)
    start = time.perf_counter()
    result = run_simulation(
        built,
        policy=policy,
        max_instructions=bench_instructions(),
        warmup_instructions=bench_warmup(),
        fast=fast,
    )
    return time.perf_counter() - start, json.dumps(result.to_dict())


def run_fastpath_bench():
    rows = []
    for workload, policy in CELLS:
        fast_s, fast_payload = _timed_cell(workload, policy, fast=True)
        slow_s, slow_payload = _timed_cell(workload, policy, fast=False)
        assert fast_payload == slow_payload, (
            f"fast path diverged on {workload}/{policy.value}"
        )
        rows.append((workload, policy.value, slow_s, fast_s, slow_s / fast_s))
    return rows


def render(rows):
    lines = [
        "Interpreter fast path: decoded dispatch vs reference stepper",
        f"(budget: {bench_instructions():,} measured "
        f"+ {bench_warmup():,} warmup instructions)",
        "",
        f"{'workload':<10} {'policy':<16} {'slow (s)':>9} "
        f"{'fast (s)':>9} {'speedup':>8}",
    ]
    for workload, policy, slow_s, fast_s, speedup in rows:
        lines.append(
            f"{workload:<10} {policy:<16} {slow_s:>9.2f} "
            f"{fast_s:>9.2f} {speedup:>7.2f}x"
        )
    best = max(r[4] for r in rows)
    lines.append("")
    lines.append(f"best speedup: {best:.2f}x (gate: >={MIN_SPEEDUP}x)")
    return "\n".join(lines)


def record_rows(rows):
    """Write the bench record (snapshot + history) for one run's rows.

    Shared by the pytest bench and ``tools/bench_trend.py measure`` so
    both produce identical records.
    """
    wall_times = {}
    for workload, policy, slow_s, fast_s, _speedup in rows:
        wall_times[f"{workload}/{policy}/slow"] = slow_s
        wall_times[f"{workload}/{policy}/fast"] = fast_s
    return write_bench_record(
        "interp_fastpath",
        wall_times_s=wall_times,
        speedup=max(r[4] for r in rows),
        extra={"gate_min_speedup": MIN_SPEEDUP},
    )


def test_interp_fastpath_speedup(benchmark, report):
    rows = benchmark.pedantic(
        run_fastpath_bench, iterations=1, rounds=1
    )
    report("interp_fastpath", render(rows))
    record_rows(rows)
    if not shapes_asserted():
        return  # tiny smoke budgets: ratios are all noise
    best = max(r[4] for r in rows)
    assert best >= MIN_SPEEDUP, (
        f"fast path best speedup {best:.2f}x below {MIN_SPEEDUP}x gate"
    )
