"""The resilience layer: fault plans, the injector, the watchdog, and
experiment failure isolation."""

import json

import pytest

from repro import (
    ConfigError,
    FaultEvent,
    FaultPlan,
    PrefetchPolicy,
    ReproError,
    Simulation,
    SimulationConfig,
    SimulationStallError,
    Watchdog,
    run_simulation,
)
from repro.harness import experiments
from repro.isa.assembler import Assembler
from repro.memory.mainmem import DataMemory, HeapAllocator
from repro.workloads.base import Workload, counted_loop


def stride_workload(iters=6_000, name="scan") -> Workload:
    """A small strided scan that forms traces and fires DLT events."""
    memory = DataMemory()
    alloc = HeapAllocator(memory)
    bases = [alloc.alloc_array(2_000_000) for _ in range(4)]
    asm = Assembler(name)
    for i, base in enumerate(bases):
        asm.li(f"r{3 + i}", base)
    close = counted_loop(asm, "r1", iters, "loop")
    for i in range(4):
        asm.ldq("r2", f"r{3 + i}", 0)
        asm.mulf("r20", "r20", rb="r2")
    for i in range(4):
        asm.lda(f"r{3 + i}", f"r{3 + i}", 64)
    close()
    asm.halt()
    return Workload(
        name=name, program=asm.build(), memory=memory,
        description="fault-test scan", kind="stride",
    )


def spin_workload() -> Workload:
    """An infinite loop: commits forever, never reaches its HALT."""
    asm = Assembler("spin")
    asm.label("loop")
    asm.addq("r2", "r2", imm=1)
    asm.br("loop")
    asm.halt()
    return Workload(
        name="spin", program=asm.build(), memory=DataMemory(),
        description="never halts", kind="irregular",
    )


# ---------------------------------------------------------------------------
# Fault plans: validation and serialisation.
# ---------------------------------------------------------------------------
class TestFaultPlan:
    def test_json_round_trip(self):
        plan = FaultPlan(
            events=(
                FaultEvent(kind="dram_latency", at_instruction=500,
                           magnitude=250, label="shift"),
                FaultEvent(kind="bus_contention", at_cycle=100,
                           duration_cycles=400, magnitude=2.0),
                FaultEvent(kind="cache_flush", at_cycle=900, magnitude=2),
            ),
            seed=7,
        )
        assert FaultPlan.from_json(json.dumps(plan.to_dict())) == plan

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "plan.json"
        plan = FaultPlan.context_switch_storm(period_cycles=1000, count=3)
        path.write_text(json.dumps(plan.to_dict()))
        assert FaultPlan.load(path) == plan
        assert len(plan) == 3

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read fault plan"):
            FaultPlan.load(tmp_path / "nope.json")

    def test_invalid_json(self):
        with pytest.raises(ConfigError, match="not valid JSON"):
            FaultPlan.from_json("{broken")

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="unknown fault kind"):
            FaultEvent(kind="cosmic_ray", at_cycle=1)

    def test_exactly_one_trigger(self):
        with pytest.raises(ConfigError, match="exactly one"):
            FaultEvent(kind="cache_flush", at_cycle=1, at_instruction=1)
        with pytest.raises(ConfigError, match="exactly one"):
            FaultEvent(kind="cache_flush")

    def test_negative_trigger(self):
        with pytest.raises(ConfigError, match="non-negative"):
            FaultEvent(kind="cache_flush", at_cycle=-1)

    def test_window_kind_needs_duration(self):
        with pytest.raises(ConfigError, match="duration_cycles > 0"):
            FaultEvent(kind="bus_contention", at_cycle=1, magnitude=2.0)

    def test_instant_kind_rejects_duration(self):
        with pytest.raises(ConfigError, match="instantaneous"):
            FaultEvent(kind="cache_flush", at_cycle=1, duration_cycles=10)

    @pytest.mark.parametrize(
        "kind,magnitude",
        [
            ("dram_latency", 0),
            ("dram_latency", -10),
            ("cache_flush", 4),
            ("dlt_corrupt", 0.0),
            ("dlt_evict", 1.5),
        ],
    )
    def test_bad_magnitudes(self, kind, magnitude):
        with pytest.raises(ConfigError):
            FaultEvent(kind=kind, at_cycle=1, magnitude=magnitude)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            FaultEvent.from_dict({"kind": "cache_flush", "at_cycle": 1,
                                  "surprise": True})
        with pytest.raises(ConfigError, match="unknown keys"):
            FaultPlan.from_dict({"events": [], "extra": 1})


# ---------------------------------------------------------------------------
# Config and input validation.
# ---------------------------------------------------------------------------
class TestValidation:
    def test_zero_instruction_budget_rejected(self):
        with pytest.raises(ConfigError, match="max_instructions"):
            SimulationConfig(max_instructions=0)

    def test_negative_warmup_rejected(self):
        with pytest.raises(ConfigError, match="warmup_instructions"):
            SimulationConfig(warmup_instructions=-1)

    def test_policy_string_coerced(self):
        cfg = SimulationConfig(policy="hw_only")
        assert cfg.policy is PrefetchPolicy.HW_ONLY

    def test_unknown_policy_string_lists_choices(self):
        with pytest.raises(ConfigError, match="self_repairing"):
            SimulationConfig(policy="turbo")

    def test_bad_budgets_rejected(self):
        with pytest.raises(ConfigError, match="max_cycles"):
            SimulationConfig(max_cycles=0)
        with pytest.raises(ConfigError, match="wall_time_limit"):
            SimulationConfig(wall_time_limit=-2.0)

    def test_unknown_workload_lists_names(self):
        with pytest.raises(ConfigError, match="mcf"):
            Simulation("not_a_benchmark")

    def test_run_simulation_validates(self):
        with pytest.raises(ConfigError):
            run_simulation("mcf", max_instructions=-5)
        with pytest.raises(ConfigError):
            run_simulation(object())  # not a name or Workload

    def test_config_error_is_value_error_and_not_transient(self):
        exc = ConfigError("x")
        assert isinstance(exc, (ReproError, ValueError))
        assert exc.transient is False
        assert SimulationStallError("y").transient is True


# ---------------------------------------------------------------------------
# Injection: effects and determinism.
# ---------------------------------------------------------------------------
class TestInjection:
    def test_permanent_dram_fault_slows_run(self):
        clean = run_simulation(
            stride_workload(), policy=PrefetchPolicy.NONE,
            max_instructions=20_000,
        )
        plan = FaultPlan.latency_phase_shift(
            at_instruction=5_000, extra_cycles=400
        )
        faulty = run_simulation(
            stride_workload(), policy=PrefetchPolicy.NONE,
            max_instructions=20_000, fault_plan=plan,
        )
        assert faulty.faults_applied == 1
        assert faulty.fault_log[0]["kind"] == "dram_latency"
        assert "phase shift" in faulty.fault_log[0]["detail"]
        assert faulty.cycles > clean.cycles * 1.2

    def test_fixed_seed_runs_are_bit_identical(self):
        plan = FaultPlan(
            events=(
                FaultEvent(kind="dram_latency", at_cycle=4_000,
                           duration_cycles=8_000, magnitude=300),
                FaultEvent(kind="cache_flush", at_cycle=9_000, magnitude=2),
                FaultEvent(kind="dlt_corrupt", at_instruction=12_000,
                           magnitude=0.5),
            ),
            seed=11,
        )
        results = [
            run_simulation(
                stride_workload(),
                policy=PrefetchPolicy.SELF_REPAIRING,
                max_instructions=24_000,
                fault_plan=plan,
            )
            for _ in range(2)
        ]
        a, b = results
        assert a.cycles == b.cycles
        assert a.instructions == b.instructions
        assert a.fault_log == b.fault_log
        assert a.breakdown() == b.breakdown()
        assert a.repairs_applied == b.repairs_applied

    def test_cache_flush_empties_caches(self):
        plan = FaultPlan(
            events=(FaultEvent(kind="cache_flush", at_cycle=6_000,
                               magnitude=3),),
        )
        sim = Simulation(
            stride_workload(),
            SimulationConfig(policy=PrefetchPolicy.NONE,
                             max_instructions=20_000),
            fault_plan=plan,
        )
        result = sim.run()
        assert result.faults_applied == 1
        assert sim.hierarchy.lines_flushed > 0

    def test_dlt_event_drop_window(self):
        plan = FaultPlan(
            events=(FaultEvent(kind="dlt_drop_events", at_cycle=0,
                               duration_cycles=10_000_000),),
        )
        sim = Simulation(
            stride_workload(),
            SimulationConfig(policy=PrefetchPolicy.SELF_REPAIRING,
                             max_instructions=24_000),
            fault_plan=plan,
        )
        result = sim.run()
        assert sim.runtime.dlt_events_dropped > 0
        # Dropped events never reach the optimizer: nothing is inserted.
        assert result.prefetches_inserted == 0

    def test_helper_stall_counted(self):
        plan = FaultPlan(
            events=(FaultEvent(kind="helper_stall", at_cycle=100,
                               duration_cycles=5_000),),
        )
        sim = Simulation(
            stride_workload(),
            SimulationConfig(policy=PrefetchPolicy.SELF_REPAIRING,
                             max_instructions=20_000),
            fault_plan=plan,
        )
        sim.run()
        assert sim.runtime.helper.stalls == 1

    def test_runtime_faults_skipped_without_runtime(self):
        plan = FaultPlan(
            events=(FaultEvent(kind="helper_fail", at_cycle=100),),
        )
        sim = Simulation(
            stride_workload(),
            SimulationConfig(policy=PrefetchPolicy.NONE,
                             max_instructions=8_000),
            fault_plan=plan,
        )
        result = sim.run()
        assert result.faults_applied == 0
        assert sim.injector.faults_skipped == 1
        assert result.fault_log[0]["skipped"] is True

    def test_window_faults_revert(self):
        plan = FaultPlan(
            events=(FaultEvent(kind="bus_contention", at_cycle=1_000,
                               duration_cycles=2_000, magnitude=4.0),),
        )
        sim = Simulation(
            stride_workload(),
            SimulationConfig(policy=PrefetchPolicy.NONE,
                             max_instructions=20_000),
            fault_plan=plan,
        )
        sim.run()
        assert sim.hierarchy.bus_occupancy_scale == pytest.approx(1.0)
        assert sim.injector.exhausted


# ---------------------------------------------------------------------------
# Watchdog.
# ---------------------------------------------------------------------------
class TestWatchdog:
    def test_cycle_budget_trips_on_infinite_loop(self):
        with pytest.raises(SimulationStallError, match="cycle budget"):
            run_simulation(
                spin_workload(), policy=PrefetchPolicy.NONE,
                max_instructions=1_000_000_000, max_cycles=50_000,
            )

    def test_stall_error_carries_progress(self):
        try:
            run_simulation(
                spin_workload(), policy=PrefetchPolicy.NONE,
                max_instructions=1_000_000_000, max_cycles=50_000,
            )
        except SimulationStallError as exc:
            assert exc.committed > 0
            assert exc.cycles > 50_000
        else:
            pytest.fail("watchdog did not trip")

    def test_commit_stall_detection(self):
        dog = Watchdog()
        dog.start()
        dog.check(committed=10, cycles=100.0)
        with pytest.raises(SimulationStallError, match="commit stall"):
            dog.check(committed=10, cycles=5_000.0)
        assert dog.trips == 1

    def test_reset_progress_forgives_segment_boundary(self):
        dog = Watchdog()
        dog.check(committed=10, cycles=100.0)
        dog.reset_progress()
        dog.check(committed=10, cycles=200.0)  # no trip

    def test_wall_time_budget_with_fake_clock(self):
        now = [0.0]
        dog = Watchdog(wall_time_limit=5.0, clock=lambda: now[0])
        dog.start()
        dog.check(committed=1, cycles=1.0)
        now[0] = 6.0
        with pytest.raises(SimulationStallError, match="wall-time"):
            dog.check(committed=2, cycles=2.0)

    def test_exactly_reached_cycle_budget_does_not_trip(self):
        """Budgets are exclusive: landing *on* the limit is within it."""
        dog = Watchdog(max_cycles=1_000.0)
        dog.start()
        dog.check(committed=10, cycles=1_000.0)
        assert dog.trips == 0
        with pytest.raises(SimulationStallError, match="cycle budget"):
            dog.check(committed=20, cycles=1_000.5)

    def test_exactly_reached_wall_deadline_does_not_trip(self):
        now = [0.0]
        dog = Watchdog(wall_time_limit=5.0, clock=lambda: now[0])
        dog.start()
        now[0] = 5.0
        dog.check(committed=1, cycles=1.0)
        assert dog.trips == 0
        now[0] = 5.001
        with pytest.raises(SimulationStallError, match="wall-time"):
            dog.check(committed=2, cycles=2.0)

    def test_zero_cycle_budget(self):
        """max_cycles=0 means "no simulated time at all": the first
        cycle of progress trips, but a zero-cycle check stays within
        budget (the limit itself is inclusive)."""
        dog = Watchdog(max_cycles=0.0)
        dog.start()
        dog.check(committed=0, cycles=0.0)
        assert dog.trips == 0
        with pytest.raises(SimulationStallError, match="cycle budget"):
            dog.check(committed=1, cycles=1.0)

    def test_trip_inside_fault_window(self):
        """A watchdog firing while a fault plan is mid-flight must
        surface the stall (with progress attached), not be masked by —
        or corrupt — the injection machinery."""
        plan = FaultPlan.latency_phase_shift(
            at_instruction=100, extra_cycles=200, seed=1
        )
        try:
            run_simulation(
                spin_workload(), policy=PrefetchPolicy.NONE,
                max_instructions=1_000_000_000, max_cycles=40_000,
                fault_plan=plan,
            )
        except SimulationStallError as exc:
            assert exc.committed > 100  # the fault window had opened
            assert exc.cycles > 40_000
        else:
            pytest.fail("watchdog did not trip inside the fault window")


# ---------------------------------------------------------------------------
# Experiment failure isolation.
# ---------------------------------------------------------------------------
class TestIsolation:
    @pytest.mark.parametrize("name", list(experiments.FIGURES))
    def test_sweep_survives_one_failing_workload(self, name, monkeypatch):
        # Figures run through the experiment engine, so the sabotage
        # targets its single simulation seam rather than run_simulation.
        from repro.harness import engine as engine_mod

        real = engine_mod._execute_job

        def sabotaged(job, *args, **kwargs):
            if job.workload == "art":
                raise RuntimeError("injected crash")
            return real(job, *args, **kwargs)

        monkeypatch.setattr(engine_mod, "_execute_job", sabotaged)
        result = experiments.run_figure(
            experiments.FIGURES[name],
            workloads=["mcf", "art", "swim"],
            max_instructions=2_000, warmup=0,
            engine=engine_mod.ExperimentEngine(checkpoints=None),
        )
        survivors = list(dict.fromkeys(r["workload"] for r in result.rows))
        assert survivors == ["mcf", "swim"]
        assert len(result.errors) == 1
        record = result.errors[0]
        assert record["workload"] == "art"
        assert record["type"] == "RuntimeError"
        rendered = result.render()
        assert "errors (1 workload failure isolated" in rendered
        assert "injected crash" in rendered

    def test_transient_error_retried_once(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) == 1:
                raise SimulationStallError("wall-time blip")
            return "ok"

        errors = []
        assert experiments.run_isolated(errors, "mcf", flaky) == "ok"
        assert len(calls) == 2
        assert errors == []

    def test_transient_error_recorded_after_second_failure(self):
        def always_stalls():
            raise SimulationStallError("stuck")

        errors = []
        assert experiments.run_isolated(errors, "mcf", always_stalls) is None
        assert errors[0]["retried"] is True

    def test_non_transient_error_not_retried(self):
        calls = []

        def broken():
            calls.append(1)
            raise ValueError("bad input")

        errors = []
        assert experiments.run_isolated(errors, "mcf", broken) is None
        assert len(calls) == 1
        assert "retried" not in errors[0]


# ---------------------------------------------------------------------------
# The resilience experiment.
# ---------------------------------------------------------------------------
class TestResilienceExperiment:
    def test_smoke(self):
        result = experiments.run_figure(
            experiments.RESILIENCE,
            workloads=["mcf"], max_instructions=8_000, warmup=4_000,
        )
        assert not result.errors
        assert [r["policy"] for r in result.rows] == [
            "basic", "self-repairing",
        ]
        for row in result.rows:
            assert len(row["windows"]) == experiments.CHUNKS
            assert row["pre_ipc"] > 0
            assert row["dip_ipc"] > 0
        rendered = result.render()
        assert "Resilience" in rendered
        assert "self-repairing" in rendered

    def test_trace_path_rows_equal_engine_rows(self, tmp_path):
        """The traced path runs the engine path's own jobs in-process:
        same rows, plus the exported event stream."""
        args = (["swim"], 8_000, 4_000)
        engine_rows = experiments.run_figure(
            experiments.RESILIENCE, *args
        ).rows
        trace = tmp_path / "swim.json"
        traced = experiments.resilience_traced(*args, trace_out=str(trace))
        assert not traced.errors
        assert traced.rows == engine_rows
        assert trace.exists()

    def test_registered_in_cli(self):
        from repro.__main__ import _FIGURE_NAMES

        assert _FIGURE_NAMES["resilience"] is experiments.RESILIENCE


# ---------------------------------------------------------------------------
# CLI integration.
# ---------------------------------------------------------------------------
class TestCLI:
    def test_inject_flag(self, tmp_path, capsys):
        from repro.__main__ import main

        plan = FaultPlan.latency_phase_shift(
            at_instruction=2_000, extra_cycles=300
        )
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan.to_dict()))
        code = main(
            ["run", "swim", "--instructions", "6000", "--warmup", "0",
             "--inject", str(path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "faults applied" in out
        assert "fault log" in out
        assert "dram_latency" in out

    def test_inject_missing_plan_is_clean_error(self, tmp_path, capsys):
        from repro.__main__ import main

        code = main(
            ["run", "swim", "--instructions", "5000",
             "--inject", str(tmp_path / "absent.json")]
        )
        assert code == 2
        assert "cannot read fault plan" in capsys.readouterr().err

    def test_wall_time_limit_trip_is_clean_error(self, capsys):
        from repro.__main__ import main

        code = main(
            ["run", "mcf", "--instructions", "2000000",
             "--warmup", "0", "--wall-time-limit", "0.05"]
        )
        assert code == 2
        assert "wall-time" in capsys.readouterr().err

    def test_flags_documented_in_help(self, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit):
            main(["run", "--help"])
        out = capsys.readouterr().out
        assert "--inject" in out
        assert "--wall-time-limit" in out
        assert "--max-cycles" in out

    def test_figure_resilience(self, capsys):
        from repro.__main__ import main

        code = main(
            ["figure", "resilience", "--workloads", "swim",
             "--instructions", "8000", "--warmup", "4000"]
        )
        assert code == 0
        assert "Resilience" in capsys.readouterr().out
