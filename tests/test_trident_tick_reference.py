"""Differential test: the fast loop's ``tick`` guard against the
per-step reference loop, under helper-thread faults.

The fast dispatch loop calls ``TridentRuntime.tick`` only when it can
act: the helper's job is due, or no job runs, an event is queued and
the helper is not stalled.  The reference loop (``fast=False``) calls it
after every instruction.  Hypothesis draws a workload, a Trident policy
and a fault plan of helper stalls, helper failures and dropped
delinquent-load events, runs both loops, and requires the same result,
the same events dispatched at the same cycles, the same helper jobs
applied at the same cycles (both the cycle a job was due and the cycle
``tick`` applied it), and the same helper and event-queue counters.

The budgets let insert and repair jobs complete, so a late or missed
dispatch changes what the helper does; fault-free runs, among them the
``@example`` ones, check that they do.  The example budget scales with
``REPRO_FUZZ_EXAMPLES`` like the scenario fuzz (CI runs 200; the local
default keeps the suite fast).
"""

from __future__ import annotations

import os

from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.config import SimulationConfig
from repro.faults.plan import FaultEvent, FaultPlan
from repro.harness.runner import Simulation

MAX_EXAMPLES = int(os.environ.get("REPRO_FUZZ_EXAMPLES", "6"))

#: Instructions per run: without faults, each workload completes an
#: insert job and, under self-repair, at least one repair job.
BUDGETS = {"mcf": 20_000, "swim": 30_000, "vis": 10_000}
#: Cycles a run of each budget takes, rounded down: fault triggers are
#: drawn inside the run.
RUN_CYCLES = {"mcf": 54_000, "swim": 25_000, "vis": 56_000}
#: Longest stall or event-drop window, in cycles (a helper job takes
#: 2,300-3,200).
MAX_WINDOW = 3_000


@st.composite
def fault_plans(draw, workload):
    events = []
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(
            st.sampled_from(("helper_stall", "helper_fail", "dlt_drop_events"))
        )
        at = draw(st.integers(0, RUN_CYCLES[workload]))
        duration = 0
        if kind != "helper_fail":
            duration = draw(st.integers(1, MAX_WINDOW))
        events.append(
            FaultEvent(kind=kind, at_cycle=at, duration_cycles=duration)
        )
    return FaultPlan(events=tuple(events), seed=draw(st.integers(1, 99)))


@st.composite
def cases(draw):
    workload = draw(st.sampled_from(sorted(BUDGETS)))
    policy = draw(st.sampled_from(("basic", "self_repairing")))
    return workload, policy, draw(fault_plans(workload))


def _run(workload, policy, plan, fast):
    """One run, recording what the runtime dispatched and applied."""
    config = SimulationConfig(
        policy=policy,
        max_instructions=BUDGETS[workload],
        warmup_instructions=0,
        fast=fast,
    )
    sim = Simulation(workload, config, fault_plan=plan)
    runtime = sim.runtime
    helper = runtime.helper
    record = {"ticks": 0, "dispatched": [], "applied": []}

    real_tick = runtime.tick
    real_dispatch = runtime._dispatch
    real_helper_tick = helper.tick

    def tick(cycle):
        record["ticks"] += 1
        real_tick(cycle)

    def dispatch(event, cycle):
        record["dispatched"].append((cycle, type(event).__name__))
        real_dispatch(event, cycle)

    def helper_tick(cycle):
        job = helper._job
        applied = real_helper_tick(cycle)
        if applied:
            record["applied"].append((cycle, job.ready, job.kind))
        return applied

    runtime.tick = tick
    runtime._dispatch = dispatch
    helper.tick = helper_tick
    result = sim.run()
    record["helper"] = (
        helper.jobs_run,
        dict(helper.jobs_by_kind),
        helper.jobs_failed,
        helper.stalls,
        helper.total_busy_cycles,
    )
    record["queue"] = runtime.events.stats
    return result.to_dict(), record


_FAULT_FREE = FaultPlan(events=())
#: Kills vis's insert job mid-flight and stalls the re-issued one.
_MID_JOB_FAULTS = FaultPlan(
    events=(
        FaultEvent(kind="helper_fail", at_cycle=13_000),
        FaultEvent(kind="helper_stall", at_cycle=24_000, duration_cycles=2_000),
    )
)


@settings(
    max_examples=MAX_EXAMPLES,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=cases())
@example(case=("mcf", "self_repairing", _FAULT_FREE))
@example(case=("swim", "self_repairing", _FAULT_FREE))
@example(case=("vis", "basic", _FAULT_FREE))
@example(case=("vis", "self_repairing", _MID_JOB_FAULTS))
def test_tick_guard_matches_per_step_ticks(case):
    workload, policy, plan = case
    fast_result, fast = _run(workload, policy, plan, fast=True)
    slow_result, slow = _run(workload, policy, plan, fast=False)

    assert fast_result == slow_result
    assert fast["dispatched"] == slow["dispatched"]
    assert fast["applied"] == slow["applied"]
    assert fast["helper"] == slow["helper"]
    assert fast["queue"] == slow["queue"]

    # The reference loop ticks once per step; the guard skips nearly all.
    assert fast["ticks"] < 0.05 * slow["ticks"]

    # Without faults the budget lets the optimizer insert prefetches
    # and, under self-repair, repair them.
    kinds = [kind for _cycle, _ready, kind in slow["applied"]]
    if not plan.events:
        assert "insert" in kinds
        if policy == "self_repairing":
            assert "repair" in kinds
