"""Tests for the 14 benchmark workloads."""

import pytest

from repro.isa.opcodes import Opcode
from repro.isa.registers import OPTIMIZER_SCRATCH_REGISTERS
from repro.workloads.registry import (
    BENCHMARK_NAMES,
    all_workload_names,
    load_workload,
)


class TestRegistry:
    def test_all_fourteen_present(self):
        assert len(BENCHMARK_NAMES) == 14
        assert all_workload_names() == BENCHMARK_NAMES
        # The paper's exact benchmark list (section 4.2).
        assert BENCHMARK_NAMES == [
            "applu", "art", "dot", "equake", "facerec", "fma3d",
            "galgel", "gap", "mcf", "mgrid", "parser", "swim", "vis",
            "wupwise",
        ]

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError, match="unknown workload"):
            load_workload("spec2077")

    def test_deterministic_build(self):
        # Against a direct build: a second load_workload call would only
        # hand out another view of the same memoized image.
        from repro.workloads import mcf

        a = load_workload("mcf", seed=3)
        b = mcf.build(3)
        assert len(a.program) == len(b.program)
        assert len(a.memory) == len(b.memory)
        for x, y in zip(a.program.instructions, b.program.instructions):
            assert x.opcode == y.opcode and x.disp == y.disp
        # Word by word, in insertion order.
        assert list(a.memory.words().items()) == list(
            b.memory.words().items()
        )

    def test_seed_changes_layout(self):
        a = load_workload("dot", seed=1)
        b = load_workload("dot", seed=2)
        # Scrambled layouts differ; read the first chain head's next ptr.
        heads_differ = any(
            a.memory.read_quiet(addr) != b.memory.read_quiet(addr)
            for addr in range(0x10000, 0x10000 + 64 * 1024, 8)
        )
        assert heads_differ


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
class TestEveryWorkload:
    def test_builds_and_validates(self, name):
        workload = load_workload(name)
        workload.program.validate()
        assert workload.name == name
        assert workload.description
        assert workload.kind in {"stride", "pointer", "mixed", "irregular"}

    def test_no_reserved_registers_written(self, name):
        workload = load_workload(name)
        for inst in workload.program.instructions:
            dest = inst.destination_register()
            assert dest not in OPTIMIZER_SCRATCH_REGISTERS

    def test_has_hot_loop(self, name):
        """Every workload must contain a conditional backward branch
        (the profiler's trace-head pattern)."""
        program = load_workload(name).program
        backward = [
            pc
            for pc, inst in enumerate(program.instructions)
            if inst.is_conditional_branch and inst.target is not None
            and inst.target <= pc
        ]
        assert backward

    def test_runs_functionally(self, name):
        """Short functional run: no crashes, commits instructions."""
        from repro.config import MachineConfig, PrefetchPolicy
        from repro.harness.runner import run_simulation

        result = run_simulation(
            name, policy=PrefetchPolicy.NONE, max_instructions=3_000
        )
        assert result.instructions == 3_000
        assert result.cycles > 0
        assert result.loads_executed > 0
