"""Behavioural tests: each workload exhibits the memory character its
benchmark is documented to have (the substitution contract of DESIGN.md)."""

import pytest

from repro.config import PrefetchPolicy, SimulationConfig
from repro.harness.runner import Simulation, run_simulation
from repro.workloads.registry import load_workload

BUDGET = 60_000


def record_kinds(sim):
    kinds = set()
    for trace in sim.runtime.code_cache.linked_traces():
        for record in trace.meta.get("records", {}).values():
            kinds.add(record.kind)
    return kinds


class TestMcf:
    def test_chase_is_stride_rescued(self):
        """mcf's allocator-sequential chains: the DLT stride-detects the
        pointer chase (section 3.3's key observation)."""
        sim = Simulation(
            "mcf",
            SimulationConfig(
                policy=PrefetchPolicy.SELF_REPAIRING,
                max_instructions=BUDGET,
            ),
        )
        sim.run()
        assert "stride" in record_kinds(sim)

    def test_fields_grouped_with_chase(self):
        sim = Simulation(
            "mcf",
            SimulationConfig(
                policy=PrefetchPolicy.SELF_REPAIRING,
                max_instructions=BUDGET,
            ),
        )
        sim.run()
        records = {
            id(r): r
            for t in sim.runtime.code_cache.linked_traces()
            for r in t.meta.get("records", {}).values()
        }
        # One same-object group covering several node-field loads.
        assert any(len(r.load_pcs) >= 3 for r in records.values())


class TestDot:
    def test_scrambled_chains_classify_pointer(self):
        sim = Simulation(
            "dot",
            SimulationConfig(
                policy=PrefetchPolicy.SELF_REPAIRING,
                max_instructions=120_000,
            ),
        )
        result = sim.run()
        kinds = record_kinds(sim)
        assert "stride" not in kinds or result.pointer_prefetches_inserted
        assert result.pointer_prefetches_inserted >= 1

    def test_traces_exit_early_often(self):
        sim = Simulation(
            "dot",
            SimulationConfig(
                policy=PrefetchPolicy.TRACE_ONLY,
                max_instructions=120_000,
            ),
        )
        sim.run()
        stats = sim.core.stats
        assert stats.trace_entries > 0
        exit_ratio = stats.trace_exits_early / stats.trace_entries
        assert exit_ratio > 0.3  # the data-dependent branch bites


class TestEquake:
    def test_gather_matures_unprefetched(self):
        sim = Simulation(
            "equake",
            SimulationConfig(
                policy=PrefetchPolicy.SELF_REPAIRING,
                max_instructions=150_000,
            ),
        )
        result = sim.run()
        # Something matured (the gather), and it never got a prefetch.
        assert result.loads_matured >= 1


class TestApplu:
    def test_body_exceeds_trace_cap(self):
        """applu's point: the inner loop is longer than both the ROB and
        the trace-length cap."""
        workload = load_workload("applu")
        sim = Simulation(
            workload,
            SimulationConfig(
                policy=PrefetchPolicy.TRACE_ONLY,
                max_instructions=40_000,
            ),
        )
        sim.run()
        traces = sim.runtime.code_cache.linked_traces()
        assert traces
        trident = sim.runtime.trident
        assert any(
            t.original_length == trident.max_trace_instructions
            for t in traces
        )

    def test_basic_equals_self_repairing(self):
        kwargs = dict(max_instructions=80_000, warmup_instructions=150_000)
        basic = run_simulation(
            "applu", policy=PrefetchPolicy.BASIC, **kwargs
        )
        repaired = run_simulation(
            "applu", policy=PrefetchPolicy.SELF_REPAIRING, **kwargs
        )
        # "applu ... a prefetch distance of 1 is optimal": repair gains
        # nothing meaningful over the basic scheme.
        assert repaired.ipc == pytest.approx(basic.ipc, rel=0.10)


class TestGalgel:
    def test_more_streams_than_buffers(self):
        workload = load_workload("galgel")
        # 12 stream cursors advance per iteration.
        from repro.isa.opcodes import Opcode

        lda_updates = {
            inst.rd
            for inst in workload.program.instructions
            if inst.opcode is Opcode.LDA and inst.ra == inst.rd
        }
        assert len(lda_updates) >= 12


class TestGap:
    def test_low_trace_coverage_of_misses(self):
        result = run_simulation(
            "gap",
            policy=PrefetchPolicy.TRACE_ONLY,
            max_instructions=120_000,
            warmup_instructions=100_000,
        )
        # The pseudo-random probes miss outside any trace.
        assert result.miss_trace_coverage < 0.85


class TestParser:
    def test_many_static_load_sites(self):
        workload = load_workload("parser")
        loads = sum(
            1 for inst in workload.program.instructions if inst.is_load
        )
        assert loads > 150  # DLT-pressure comes from site count
