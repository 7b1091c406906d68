"""Integration tests: the full pipeline from program to repaired trace.

These drive small custom workloads end to end and assert that the
machinery of the paper actually engages: traces form and link, the DLT
fires, prefetches are inserted and repaired, IPC improves.
"""

import random

import pytest

from repro.config import (
    MachineConfig,
    PrefetchPolicy,
    SimulationConfig,
    TridentConfig,
)
from repro.harness.runner import Simulation, run_simulation
from repro.isa.assembler import Assembler
from repro.isa.opcodes import Opcode
from repro.memory.mainmem import DataMemory, HeapAllocator
from repro.workloads.base import Workload, counted_loop
from repro.workloads.data import build_linked_list


def stride_workload(iters=200_000, streams=10) -> Workload:
    """A many-stream line-stride scan shaped so software prefetching wins
    (more concurrent streams than the eight hardware buffers)."""
    memory = DataMemory()
    alloc = HeapAllocator(memory)
    bases = [alloc.alloc_array(4_000_000) for _ in range(streams)]
    asm = Assembler("scan")
    for i, base in enumerate(bases):
        asm.li(f"r{3 + i}", base)
    close = counted_loop(asm, "r1", iters, "loop")
    for i in range(streams):
        asm.ldq("r2", f"r{3 + i}", 0)
        # Carried dependence (~8 cycles per stream) keeps the iteration
        # longer than the bus needs, so prefetch timeliness decides.
        asm.mulf("r20", "r20", rb="r2")
        asm.addf("r20", "r20", rb="r2")
    for i in range(streams):
        asm.lda(f"r{3 + i}", f"r{3 + i}", 64)
    close()
    asm.halt()
    return Workload(
        name="scan", program=asm.build(), memory=memory,
        description="test scan", kind="stride",
    )


class TestTraceLifecycle:
    def test_traces_form_and_link(self):
        sim = Simulation(
            stride_workload(),
            SimulationConfig(
                policy=PrefetchPolicy.SELF_REPAIRING,
                max_instructions=30_000,
            ),
        )
        result = sim.run()
        assert result.traces_linked >= 1
        assert sim.core.stats.trace_entries > 100
        assert sim.core.stats.trace_committed > 0

    def test_prefetches_inserted_and_repaired(self):
        sim = Simulation(
            stride_workload(),
            SimulationConfig(
                policy=PrefetchPolicy.SELF_REPAIRING,
                max_instructions=120_000,
            ),
        )
        result = sim.run()
        assert result.prefetches_inserted >= 1
        assert result.repairs_applied >= 3
        # The linked trace carries live prefetch instructions.
        traces = sim.runtime.code_cache.linked_traces()
        assert any(t.prefetch_instructions() for t in traces)

    def test_self_repairing_beats_hw_baseline(self):
        # galgel's shape (12 streams > 8 buffers) is the clearest case
        # where the software prefetcher must beat the hardware baseline.
        kwargs = dict(max_instructions=80_000, warmup_instructions=200_000)
        hw = run_simulation("galgel", policy=PrefetchPolicy.HW_ONLY, **kwargs)
        sr = run_simulation(
            "galgel", policy=PrefetchPolicy.SELF_REPAIRING, **kwargs
        )
        assert sr.speedup_over(hw) > 1.1

    def test_overhead_only_never_links(self):
        sim = Simulation(
            stride_workload(),
            SimulationConfig(
                policy=PrefetchPolicy.SELF_REPAIRING,
                max_instructions=40_000,
                overhead_only=True,
            ),
        )
        result = sim.run()
        assert sim.core.stats.trace_entries == 0
        assert result.traces_formed >= 1  # the optimizer still worked

    def test_trace_only_monitors_without_inserting(self):
        sim = Simulation(
            stride_workload(),
            SimulationConfig(
                policy=PrefetchPolicy.TRACE_ONLY,
                max_instructions=60_000,
            ),
        )
        result = sim.run()
        assert result.traces_linked >= 1
        assert result.prefetches_inserted == 0
        assert sim.core.stats.misses_in_traces > 0

    def test_functional_equivalence_across_policies(self):
        """Optimization must never change architectural results."""
        finals = []
        for policy in (
            PrefetchPolicy.NONE,
            PrefetchPolicy.HW_ONLY,
            PrefetchPolicy.SELF_REPAIRING,
        ):
            sim = Simulation(
                stride_workload(iters=3_000),
                SimulationConfig(policy=policy, max_instructions=10**9),
            )
            sim.run()
            assert sim.core.ctx.halted
            finals.append(list(sim.core.ctx.regs))
        assert finals[0] == finals[1] == finals[2]


class TestPointerPipeline:
    def make_chase(self, scramble):
        memory = DataMemory()
        alloc = HeapAllocator(memory)
        head, _ = build_linked_list(
            alloc, node_words=8, count=30_000,
            rng=random.Random(5), scramble=scramble,
        )
        asm = Assembler("chase")
        close_outer = counted_loop(asm, "r21", 1_000, "outer")
        asm.li("r1", head)
        close_inner = counted_loop(asm, "r22", 30_000, "walk")
        asm.ldq("r2", "r1", 8)
        asm.addq("r11", "r11", rb="r2")
        asm.mulq("r12", "r11", imm=3)
        asm.ldq("r1", "r1", 0)
        close_inner()
        close_outer()
        asm.halt()
        return Workload(
            name="chase", program=asm.build(), memory=memory,
            description="chase", kind="pointer",
        )

    def test_sequential_layout_gets_stride_prefetch(self):
        sim = Simulation(
            self.make_chase(scramble=False),
            SimulationConfig(
                policy=PrefetchPolicy.SELF_REPAIRING,
                max_instructions=100_000,
            ),
        )
        sim.run()
        kinds = {
            record.kind
            for trace in sim.runtime.code_cache.linked_traces()
            for record in trace.meta.get("records", {}).values()
        }
        assert "stride" in kinds  # DLT rescued the pointer chase

    def test_scrambled_layout_gets_pointer_prefetch(self):
        sim = Simulation(
            self.make_chase(scramble=True),
            SimulationConfig(
                policy=PrefetchPolicy.SELF_REPAIRING,
                max_instructions=100_000,
            ),
        )
        result = sim.run()
        kinds = {
            record.kind
            for trace in sim.runtime.code_cache.linked_traces()
            for record in trace.meta.get("records", {}).values()
        }
        assert "pointer" in kinds
        assert result.pointer_prefetches_inserted >= 1
        # The inserted non-faulting dereference executes.
        assert sim.core.stats.synthetic_executed > 0


class TestHelperInterference:
    def test_helper_activity_reported(self):
        result = run_simulation(
            "galgel",
            policy=PrefetchPolicy.SELF_REPAIRING,
            max_instructions=60_000,
        )
        assert 0.0 < result.helper_active_fraction <= 1.0
        assert result.helper_jobs.get("form", 0) >= 1

    def test_hw_only_has_no_helper(self):
        result = run_simulation(
            "swim", policy=PrefetchPolicy.HW_ONLY, max_instructions=20_000
        )
        assert result.helper_active_fraction == 0.0
        assert result.traces_linked == 0
