"""Lookup guard for the per-event paths.

On CPython 3.11, reading an Enum member through its class
(``OutcomeKind.HIT``) is a descriptor call that costs several plain
attribute reads.  The functions below run once per load, per prefetch
probe or per committed instruction, so they compare against members
bound to module constants instead (DESIGN.md §5c‴).  This test parses
each function's source and fails on any attribute read of an Enum class
named in ``ENUM_CLASSES``.  The generated code of a linked trace runs
once per trace instruction, so the source rendered for a trace with
every kind of trace instruction is checked the same way.
"""

from __future__ import annotations

import ast
import inspect
import textwrap

import pytest

from repro.config import PrefetchPolicy
from repro.cpu.fastpath import trace_source
from repro.hwprefetch.stream_buffer import StreamBufferPrefetcher
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.stats import LoadOutcome, MemoryStats
from repro.trident.dlt import DelinquentLoadTable
from repro.trident.runtime import TridentRuntime
from repro.trident.trace import TraceInstruction

ENUM_CLASSES = {"OutcomeKind", "PrefetchSource", "PrefetchPolicy", "Opcode"}

PER_EVENT_FUNCTIONS = [
    MemoryHierarchy.load,
    MemoryHierarchy._classify_miss,
    MemoryHierarchy.software_prefetch,
    MemoryStats.record,
    LoadOutcome.is_miss.fget,
    LoadOutcome.miss_latency.fget,
    StreamBufferPrefetcher._fill,
    StreamBufferPrefetcher.on_demand_load,
    StreamBufferPrefetcher._maybe_allocate,
    TridentRuntime.on_trace_load,
    TridentRuntime.tick,
    DelinquentLoadTable.update,
    PrefetchPolicy.software_prefetching.fget,
    PrefetchPolicy.hardware_prefetching.fget,
    PrefetchPolicy.inserts_prefetches.fget,
    PrefetchPolicy.adaptive_repair.fget,
    PrefetchPolicy.same_object_grouping.fget,
]


def enum_reads(source: str):
    """``Class.member`` reads of an ``ENUM_CLASSES`` class in ``source``."""
    return [
        f"{node.value.id}.{node.attr}"
        for node in ast.walk(ast.parse(textwrap.dedent(source)))
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Load)
        and isinstance(node.value, ast.Name)
        and node.value.id in ENUM_CLASSES
    ]


@pytest.mark.parametrize(
    "function", PER_EVENT_FUNCTIONS, ids=lambda f: f.__qualname__
)
def test_no_enum_member_reads(function):
    assert enum_reads(inspect.getsource(function)) == []


def test_checker_sees_member_reads():
    source = '''
    def f(outcome, policy):
        if outcome.kind is OutcomeKind.HIT:
            return policy in (PrefetchPolicy.BASIC,)
        return Opcode.LDQ
    '''
    assert sorted(enum_reads(source)) == [
        "Opcode.LDQ", "OutcomeKind.HIT", "PrefetchPolicy.BASIC",
    ]


def _every_trace_kind():
    """A trace body with one instruction of every kind a trace holds."""
    def t(opcode, synthetic=False, expected=None, **fields):
        return TraceInstruction(Instruction(opcode=opcode, **fields), 7,
                                expected, synthetic)

    return [
        t(Opcode.LDQ, rd=1, ra=2, disp=8),
        t(Opcode.LDQ_NF, synthetic=True, rd=3, ra=1, disp=16),
        t(Opcode.PREFETCH, synthetic=True, ra=1, disp=64),
        t(Opcode.STQ, rd=1, ra=2, disp=24),
        t(Opcode.ADDQ, rd=4, ra=1, rb=3),
        t(Opcode.MULF, rd=5, ra=5, imm=1.5),
        t(Opcode.LDA, rd=2, ra=2, disp=8),
        t(Opcode.MOVE, rd=6, ra=4),
        t(Opcode.NOP),
        t(Opcode.BR, target=3),
        t(Opcode.BNE, expected=True, ra=4, target=3),
        t(Opcode.BEQ, expected=False, ra=4, target=9),
        t(Opcode.JMP, expected=True, ra=6, target=3),
        t(Opcode.HALT),
    ]


@pytest.mark.parametrize("injector", [False, True])
def test_no_enum_member_reads_in_generated_trace_code(injector):
    source, _live, _consts = trace_source(
        _every_trace_kind(), 3, injector=injector, watchdog=True
    )
    compile(source, "<trace>", "exec")
    assert enum_reads(source) == []
