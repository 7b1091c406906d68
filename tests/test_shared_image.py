"""The once-per-process workload build and its copy-on-write memory.

``load_workload`` keeps the last built workload and hands every caller
a new ``Workload`` sharing its ``Program`` and a fresh view of its
memory image.  Sharing must be invisible: views never see each other's
stores, the image never changes, a pickled view is the same bytes as a
memory built with the same stores, and running the paper's optimizer
never rewrites the shared program.
"""

from __future__ import annotations

import gc
import pickle
import weakref

import pytest

from repro.checkpoint.snapshot import canonical_dumps
from repro.config import PrefetchPolicy, SimulationConfig
from repro.harness.runner import Simulation
from repro.memory.mainmem import HEAP_BASE, DataMemory
from repro.workloads import dot, registry
from repro.workloads.registry import load_workload

#: dot's image: 96k words, built in about 0.1 s.
NAME = "dot"
#: Past every word dot maps.
FAR = 0x4000_0000


def _state(memory):
    return list(memory.words().items())


class TestViews:
    def test_views_never_see_each_others_stores(self):
        first = load_workload(NAME)
        second = load_workload(NAME)
        assert first.program is second.program
        assert first.memory is not second.memory
        original = first.memory.read_quiet(HEAP_BASE)

        first.memory.write(HEAP_BASE, -1)
        first.memory.write(FAR, 7)
        second.memory.write(HEAP_BASE + 8, -2)

        assert second.memory.read_quiet(HEAP_BASE) == original
        assert not second.memory.is_mapped(FAR)
        assert first.memory.read_quiet(HEAP_BASE + 8) != -2

        third = load_workload(NAME)
        assert _state(third.memory) == _state(dot.build(1).memory)

    @pytest.mark.parametrize("stores", [
        (),
        ((HEAP_BASE, 123456789),),                  # overwrites an image word
        ((FAR, 5), (FAR + 16, 2.5)),                # new words only
        ((FAR, 5), (HEAP_BASE + 8, 9), (FAR, 6)),   # both, one twice
    ], ids=["none", "overwrite", "new", "mixed"])
    def test_pickled_view_is_a_built_memory(self, stores):
        view = load_workload(NAME).memory
        built = dot.build(1).memory
        for addr, value in stores:
            view.write(addr, value)
            built.write(addr, value)
        assert canonical_dumps(view) == canonical_dumps(built)
        assert pickle.dumps(view) == pickle.dumps(built)
        restored = pickle.loads(pickle.dumps(view))
        assert _state(restored) == _state(built)
        restored.write(HEAP_BASE, 0)
        assert load_workload(NAME).memory.read_quiet(HEAP_BASE) == (
            dot.build(1).memory.read_quiet(HEAP_BASE)
        )

    def test_accessors_behave_as_a_plain_memory(self):
        base = DataMemory()
        base.write_array(HEAP_BASE, [1, 2, 3])
        view = base.view()
        plain = DataMemory()
        plain.write_array(HEAP_BASE, [1, 2, 3])
        for memory in (view, plain):
            memory.write(HEAP_BASE + 8, 20)        # overwrite
            memory.write(HEAP_BASE + 40, 50)       # new word
            memory.write(HEAP_BASE + 41, 51)       # same word, unaligned
        for memory in (view, plain):
            assert len(memory) == 4
            assert memory.read(HEAP_BASE + 3) == 1
            assert memory.read(HEAP_BASE + 8) == 20
            assert memory.read(HEAP_BASE + 40) == 51
            assert memory.unmapped_reads == 0
            assert memory.read(HEAP_BASE + 24) == 0
            assert memory.unmapped_reads == 1
            assert memory.read_quiet(HEAP_BASE + 24) == 0
            assert memory.read_quiet(HEAP_BASE + 16) == 3
            assert memory.unmapped_reads == 1
            assert memory.is_mapped(HEAP_BASE + 23)
            assert memory.is_mapped(HEAP_BASE + 47)
            assert not memory.is_mapped(HEAP_BASE + 24)
        assert _state(view) == _state(plain)
        assert _state(base) == [(HEAP_BASE, 1), (HEAP_BASE + 8, 2),
                                (HEAP_BASE + 16, 3)]
        assert len(base) == 3


class TestSharedProgram:
    def test_self_repairing_run_leaves_the_program_unchanged(self):
        shared = load_workload("swim").program

        def fields():
            return [
                (inst.opcode, inst.rd, inst.ra, inst.rb, inst.imm,
                 inst.disp, inst.target, dict(inst.meta))
                for inst in shared.instructions
            ]

        before = fields()
        sim = Simulation("swim", SimulationConfig(
            policy=PrefetchPolicy.SELF_REPAIRING,
            max_instructions=30_000,
            warmup_instructions=10_000,
        ))
        assert sim.workload.program is shared
        result = sim.run()
        # The run formed traces, inserted prefetches and repaired them:
        # all of it on copies.
        assert result.repairs_applied > 0
        assert fields() == before


class TestOneImage:
    def test_loading_another_workload_releases_the_image(self):
        load_workload(NAME)
        memoized = weakref.ref(registry._last[1])
        load_workload(NAME)
        assert registry._last[1] is memoized()
        load_workload("art")
        gc.collect()
        assert memoized() is None

    def test_seed_is_part_of_the_key(self):
        one = load_workload(NAME, seed=1)
        two = load_workload(NAME, seed=2)
        assert _state(one.memory) == _state(dot.build(1).memory)
        assert _state(two.memory) == _state(dot.build(2).memory)
