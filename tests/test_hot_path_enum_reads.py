"""Lookup guard for the per-event paths.

On CPython 3.11, reading an Enum member through its class
(``OutcomeKind.HIT``) is a descriptor call that costs several plain
attribute reads.  The functions below run once per load, per prefetch
probe or per committed instruction, so they compare against members
bound to module constants instead (DESIGN.md §5c‴).  This test parses
each function's source and fails on any attribute read of an Enum class
named in ``ENUM_CLASSES``.  The generated code of a linked trace runs
once per trace instruction, so the source rendered for a trace with
every kind of trace instruction is checked the same way, and so is
every original-program step template (each instruction shape, with and
without a runtime).  The step bodies' ``core.``/``stats.`` attribute
reads and writes are pinned too: a template must touch exactly the
core state the hand-written handler it replaced touched.
"""

from __future__ import annotations

import ast
import inspect
import textwrap

import pytest

from repro.config import PrefetchPolicy
from repro.cpu.executor import ALU_OPS
from repro.cpu.fastpath import step_source, trace_source
from repro.hwprefetch.stream_buffer import StreamBufferPrefetcher
from repro.isa.instruction import Instruction
from repro.isa.opcodes import CONDITIONAL_BRANCHES, LOAD_OPCODES, Opcode
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
        _every_trace_kind(), 3, injector=injector
    )
    compile(source, "<trace>", "exec")
    assert enum_reads(source) == []


def _step_shapes():
    """Every instruction shape a program can hold, as ``step_source``
    arguments: registers as the assembler sets them, a result register
    that is r31 or not, with and without a runtime."""
    for op in Opcode:
        has_ra = op not in (Opcode.BR, Opcode.NOP, Opcode.HALT)
        writes = (op in ALU_OPS or op in LOAD_OPCODES
                  or op in (Opcode.LDA, Opcode.MOVE))
        for has_rb in (False, True) if op in ALU_OPS else (False,):
            for dest in (False, True) if writes else (False,):
                for runtime in (False, True):
                    yield op, has_ra, has_rb, dest, runtime


def _shape_id(shape):
    op, _, has_rb, dest, runtime = shape
    return "-".join([op.value] + ["rb"] * has_rb + ["rd"] * dest
                    + ["runtime"] * runtime)


STEP_SHAPES = list(_step_shapes())


@pytest.mark.parametrize("shape", STEP_SHAPES, ids=_shape_id)
def test_no_enum_member_reads_in_step_templates(shape):
    source = step_source(*shape)
    compile(source, "<step>", "exec")
    assert enum_reads(source) == []


#: The ``core.``/``stats.`` accesses inside the step handlers the
#: templates replaced (read ``r``, written ``w``; an augmented assignment
#: is a write), recorded from them before they were deleted.  Every
#: shape shares the issue and retire state.
_COMMON = {
    ("core._issue_clock", "r"), ("core._issue_clock", "w"),
    ("core._fetch_stall_until", "r"),
    ("core._rob_idx", "r"), ("core._rob_idx", "w"),
    ("core._completion_max", "r"), ("core._completion_max", "w"),
    ("stats.committed", "w"),
}
_LOAD = _COMMON | {
    ("core._loadq_idx", "r"), ("core._loadq_idx", "w"),
    ("stats.loads_executed", "w"), ("stats.misses_total", "w"),
    ("stats.miss_count_by_pc", "r"),
}
_COND_BRANCH = _COMMON | {
    ("core._fetch_stall_until", "w"),
    ("stats.conditional_branches", "w"), ("stats.branch_mispredicts", "w"),
}
_JMP = _COMMON | {("core._fetch_stall_until", "w")}


def _expected_state_access(op):
    if op in LOAD_OPCODES:
        return _LOAD
    if op in CONDITIONAL_BRANCHES:
        return _COND_BRANCH
    if op is Opcode.JMP:
        return _JMP
    return _COMMON


def _state_access(source):
    """``core.``/``stats.`` reads and writes inside the ``step`` body."""
    step = next(node for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.FunctionDef) and node.name == "step")
    return {
        (f"{node.value.id}.{node.attr}",
         "r" if isinstance(node.ctx, ast.Load) else "w")
        for node in ast.walk(step)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in ("core", "stats")
    }


@pytest.mark.parametrize("shape", STEP_SHAPES, ids=_shape_id)
def test_step_templates_touch_the_replaced_handlers_state(shape):
    assert _state_access(step_source(*shape)) == _expected_state_access(
        shape[0]
    )
