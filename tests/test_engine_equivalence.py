"""Differential proof that the engine's three execution paths match the
legacy serial harness bit for bit.

For a grid of (workload, policy) pairs, the full
``SimulationResult.to_dict()`` payload must be byte-identical across:

* the legacy serial ``run_simulation`` call,
* the engine in-process (``workers=1``),
* the engine fanned out over a process pool (``workers=4``),
* a cached replay (second engine run over the same warm cache).

Any divergence — float re-derivation, pickling loss, nondeterministic
ordering, worker-side observation — shows up as a failed string compare.
"""

from __future__ import annotations

import json

import pytest

from repro.config import PrefetchPolicy
from repro.faults.plan import FaultPlan
from repro.harness.cache import ResultCache
from repro.harness.engine import ExperimentEngine, make_job
from repro.harness.runner import SimulationResult, run_simulation

WORKLOADS = ["art", "dot", "mcf"]
POLICIES = [PrefetchPolicy.HW_ONLY, PrefetchPolicy.SELF_REPAIRING]
BUDGET = 3_000
WARMUP = 500


def _canon(result) -> str:
    # No sort_keys: dict ordering is part of the contract (the CLI's
    # --json output must not depend on whether the result was cached).
    return json.dumps(result.to_dict())


def _jobs():
    return [
        make_job(
            name, policy=policy,
            max_instructions=BUDGET, warmup_instructions=WARMUP,
        )
        for name in WORKLOADS
        for policy in POLICIES
    ]


@pytest.fixture(scope="module")
def legacy_payloads():
    """The ground truth: one serial run_simulation per grid cell."""
    return [
        _canon(run_simulation(
            name, policy=policy,
            max_instructions=BUDGET, warmup_instructions=WARMUP,
        ))
        for name in WORKLOADS
        for policy in POLICIES
    ]


def test_inprocess_engine_matches_legacy(legacy_payloads, tmp_path):
    engine = ExperimentEngine(workers=1, cache=ResultCache(tmp_path))
    results = engine.run_all(_jobs())
    assert [_canon(r) for r in results] == legacy_payloads
    assert engine.stats.jobs_run == len(legacy_payloads)


def test_parallel_engine_matches_legacy(legacy_payloads, tmp_path):
    engine = ExperimentEngine(workers=4, cache=ResultCache(tmp_path))
    results = engine.run_all(_jobs())
    assert [_canon(r) for r in results] == legacy_payloads


def test_cached_replay_matches_legacy(legacy_payloads, tmp_path):
    cache = ResultCache(tmp_path)
    ExperimentEngine(workers=1, cache=cache).run_all(_jobs())

    replay_engine = ExperimentEngine(workers=1, cache=cache)
    results = replay_engine.run_all(_jobs())
    assert [_canon(r) for r in results] == legacy_payloads
    # Every job must have come from the cache, none re-simulated.
    assert replay_engine.stats.jobs_cached == len(legacy_payloads)
    assert replay_engine.stats.jobs_run == 0


def test_replayed_result_supports_derived_accessors(tmp_path):
    """Replayed results answer the same questions live ones do."""
    cache = ResultCache(tmp_path)
    job = make_job(
        "art", policy=PrefetchPolicy.SELF_REPAIRING,
        max_instructions=BUDGET, warmup_instructions=WARMUP,
    )
    live = ExperimentEngine(cache=cache).run_all([job])[0]
    replayed = ExperimentEngine(cache=cache).run([job])[0]
    assert replayed.cached
    live_base = run_simulation(
        "art", policy=PrefetchPolicy.HW_ONLY,
        max_instructions=BUDGET, warmup_instructions=WARMUP,
    )
    assert replayed.result.speedup_over(live_base) == pytest.approx(
        live.speedup_over(live_base)
    )
    assert replayed.result.breakdown() == live.breakdown()
    assert replayed.result.policy is PrefetchPolicy.SELF_REPAIRING
    assert type(replayed.result) is SimulationResult
    assert replayed.result == live


@pytest.mark.parametrize(
    "carried, kwargs",
    [
        ("samples", dict(sample_interval=1_000)),
        ("fault_log", dict(fault_plan=FaultPlan.latency_phase_shift(
            at_instruction=WARMUP + BUDGET // 2,
        ))),
    ],
    ids=["samples", "fault_log"],
)
def test_from_dict_rebuilds_an_equal_result(carried, kwargs):
    """A result survives its own serialisation as an equal value."""
    live = run_simulation(
        "mcf", policy=PrefetchPolicy.SELF_REPAIRING,
        max_instructions=BUDGET, warmup_instructions=WARMUP, **kwargs,
    )
    assert getattr(live, carried)
    rebuilt = SimulationResult.from_dict(json.loads(_canon(live)))
    assert rebuilt == live
    assert _canon(rebuilt) == _canon(live)
