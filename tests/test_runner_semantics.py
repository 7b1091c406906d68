"""Runner semantics: warmup accounting, stat resets, result integrity."""

import pytest

from repro.config import PrefetchPolicy, SimulationConfig
from repro.harness.runner import Simulation, run_simulation


class TestWarmupSemantics:
    def test_post_warmup_stats_exclude_warmup(self):
        cold = run_simulation(
            "swim", policy=PrefetchPolicy.HW_ONLY,
            max_instructions=20_000, warmup_instructions=0,
        )
        warm = run_simulation(
            "swim", policy=PrefetchPolicy.HW_ONLY,
            max_instructions=20_000, warmup_instructions=60_000,
        )
        # Warm caches: the measured interval has a higher hit fraction
        # than a cold start over the same instruction count.
        assert warm.breakdown()["hit"] >= cold.breakdown()["hit"]
        assert warm.instructions == cold.instructions == 20_000

    def test_warmup_keeps_optimizer_state(self):
        warm = run_simulation(
            "mcf", policy=PrefetchPolicy.SELF_REPAIRING,
            max_instructions=10_000, warmup_instructions=120_000,
        )
        # Prefetch insertion happened during warmup; the measured window
        # inherits the linked, repaired traces.
        assert warm.prefetches_inserted >= 1
        assert warm.traces_linked >= 1

    def test_interval_ipc_differs_from_whole_run(self):
        sim = Simulation(
            "mcf",
            SimulationConfig(
                policy=PrefetchPolicy.SELF_REPAIRING,
                max_instructions=20_000,
                warmup_instructions=150_000,
            ),
        )
        result = sim.run()
        whole_run_ipc = sim.core.stats.committed / sim.core.cycles
        # The measured window (post-convergence) beats the lifetime
        # average, which drags the slow ramp along.
        assert result.ipc > whole_run_ipc

    def test_miss_profile_covers_measured_window_only(self):
        result = run_simulation(
            "swim", policy=PrefetchPolicy.NONE,
            max_instructions=10_000, warmup_instructions=30_000,
        )
        profile = result.miss_profile()
        assert sum(profile.values()) == result.misses_total


class TestResultIntegrity:
    def test_cycles_positive_and_finite(self):
        result = run_simulation(
            "gap", policy=PrefetchPolicy.NONE, max_instructions=5_000
        )
        assert 0 < result.cycles < float("inf")
        assert 0 < result.ipc < 8

    def test_helper_jobs_only_for_sw_policies(self):
        hw = run_simulation(
            "gap", policy=PrefetchPolicy.HW_ONLY, max_instructions=5_000
        )
        assert hw.helper_jobs == {}
        sw = run_simulation(
            "gap", policy=PrefetchPolicy.SELF_REPAIRING,
            max_instructions=60_000,
        )
        assert sw.helper_jobs.get("form", 0) >= 1

    def test_to_dict_round_trips_through_json(self):
        import json

        result = run_simulation(
            "swim", policy=PrefetchPolicy.SELF_REPAIRING,
            max_instructions=15_000,
        )
        data = json.loads(json.dumps(result.to_dict()))
        assert data["instructions"] == 15_000
        assert data["policy"] == "self_repairing"

    def test_resume_leaves_earlier_result_unchanged(self):
        """A result is a value: resuming the simulation that produced it
        to a larger budget must not reach back into it."""
        budget = 5_000
        sim = Simulation(
            "mcf",
            SimulationConfig(
                policy=PrefetchPolicy.SELF_REPAIRING,
                max_instructions=budget,
            ),
        )
        result = sim.run()
        before = result.to_dict()
        later = sim.resume(3 * budget)
        assert later.instructions == 3 * budget
        assert later.to_dict()["loads_executed"] > before["loads_executed"]
        assert result.to_dict() == before
