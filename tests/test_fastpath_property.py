"""Property-based differential fuzzing of the decoded fast interpreter.

Hypothesis generates random straight-line programs — every
straight-line opcode class (integer and FP ALU, loads, non-faulting
loads, stores, prefetches, LDA, MOVE, NOP) in arbitrary order with
arbitrary register/displacement choices — and asserts the reference
stepper and the fast path agree on *all* architecturally visible state:
registers, memory words, cycles, core stats, and the memory hierarchy's
outcome counters.

Straight-line code is one basic block, which a core without a runtime
steps in one loop with no hook between its instructions.  A second
property re-runs each program under a random instruction budget, which
clamps that loop mid-block.  On a core without a runtime the loop is
also clamped to the next watchdog check: these properties give the
watchdog a random check interval and compare every
``check(committed, cycles)`` call the two interpreters make (without
the clamp, the fast path checks late and the sequences differ).

Two more properties add control flow — conditional branches, BR, JMP
and HALT to random labels, so programs loop — and run every step
template: once on a core without a runtime, and once on a core carrying
a ``TridentRuntime`` with a quick helper thread.  There the runtime
variant of each step (helper interference, ``on_branch`` arguments and
the trace-entry probe) runs against ``fast=False``; hot branches form
and link traces, so the generated trace code runs too.  Every
``on_branch`` call and the runtime's counters are compared as well.

The example budget of every property scales with
``REPRO_FUZZ_EXAMPLES`` like the other oracles (CI runs 200).
"""

from __future__ import annotations

import dataclasses
import os

from hypothesis import given, settings, strategies as st

from repro.config import MachineConfig, PrefetchPolicy, TridentConfig
from repro.cpu.core import SMTCore
from repro.faults.watchdog import Watchdog
from repro.isa.assembler import Assembler
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.mainmem import DataMemory
from repro.trident.runtime import TridentRuntime

FUZZ_EXAMPLES = os.environ.get("REPRO_FUZZ_EXAMPLES")


def _examples(default):
    return int(FUZZ_EXAMPLES) if FUZZ_EXAMPLES else default


REGS = [f"r{i}" for i in range(1, 9)]
ADDR_REG = "r9"  # always holds BASE: loads/stores stay in a mapped region
JMP_REG = "r10"  # set to the jump's target PC just before each JMP
BASE = 0x10000

_regs = st.sampled_from(REGS)
# Word-aligned displacements spanning a few cache lines, so generated
# loads mix L1 hits, misses, and stream-buffer-adjacent patterns.
_disps = st.integers(min_value=0, max_value=64).map(lambda n: n * 8)
# Shifts take the immediate form with a small count so register values
# stay bounded no matter how the program chains them.
_shift_imms = st.integers(min_value=0, max_value=8)
_imms = st.integers(min_value=0, max_value=255)

_instructions = st.one_of(
    st.tuples(
        st.just("alu"),
        st.sampled_from(
            ["addq", "subq", "mulq", "and_", "or_", "xor",
             "addf", "subf", "mulf"]
        ),
        _regs, _regs, st.one_of(_regs, _imms),
    ),
    st.tuples(st.just("shift"), st.sampled_from(["sll", "srl"]),
              _regs, _regs, _shift_imms),
    st.tuples(st.just("cmp"), st.sampled_from(["cmpeq", "cmplt", "cmple"]),
              _regs, _regs, st.one_of(_regs, _imms)),
    st.tuples(st.just("ldq"), _regs, _disps),
    st.tuples(st.just("ldq_nf"), _regs, _disps),
    st.tuples(st.just("stq"), _regs, _disps),
    st.tuples(st.just("prefetch"), _disps),
    st.tuples(st.just("lda"), _regs, _disps),
    st.tuples(st.just("move"), _regs, _regs),
    st.tuples(st.just("nop"),),
)

programs = st.lists(_instructions, min_size=0, max_size=48)

#: A label index: the op the branch goes to (``len(ops)`` is the loop
#: tail).  Indices past the end are clamped when the program is built.
_labels = st.integers(min_value=0, max_value=32)

_cond = st.tuples(st.just("cond"),
                  st.sampled_from(["beq", "bne", "blt", "bge"]),
                  _regs, _labels)
_jmp = st.tuples(st.just("jmp"), _labels)
# A HALT ends the run, so it is drawn least often.
_control = st.one_of(_cond, _cond, _cond, _cond, _jmp, _jmp,
                     st.tuples(st.just("br"), _labels),
                     st.tuples(st.just("halt"),))

#: Loop bodies with control flow: mostly straight-line ops, so branches
#: between runs of work get hot.
branchy_programs = st.lists(
    st.one_of(_instructions, _instructions, _instructions, _control),
    min_size=1, max_size=32,
)

LOOP_REG = "r11"  # counts the body's iterations down
LOOPS = 60
_CONTROL = ("cond", "br", "jmp", "halt")


def _build(ops):
    """Straight-line ``ops`` run once and halt.  With control flow they
    are a loop body run ``LOOPS`` times (branches may go anywhere in it,
    so inner loops can spin until the budget ends)."""
    looping = any(op[0] in _CONTROL for op in ops)
    asm = Assembler("prop")
    asm.li(ADDR_REG, BASE)
    for i, reg in enumerate(REGS):
        asm.li(reg, (i * 37 + 11) % 251)
    if looping:
        asm.li(LOOP_REG, LOOPS)
    # Op i starts at pcs[i]; a JMP takes two instructions (li + jmp).
    pcs = [asm.here]
    for op in ops:
        pcs.append(pcs[-1] + (2 if op[0] == "jmp" else 1))
    for i, op in enumerate(ops):
        asm.label(f"op{i}")
        kind = op[0]
        if kind == "cond":
            getattr(asm, op[1])(op[2], f"op{min(op[3], len(ops))}")
        elif kind == "br":
            asm.br(f"op{min(op[1], len(ops))}")
        elif kind == "jmp":
            asm.li(JMP_REG, pcs[min(op[1], len(ops))])
            asm.jmp(JMP_REG)
        elif kind == "halt":
            asm.halt()
        elif kind in ("alu", "cmp"):
            _, name, rd, ra, b = op
            if isinstance(b, str):
                getattr(asm, name)(rd, ra, rb=b)
            else:
                getattr(asm, name)(rd, ra, imm=b)
        elif kind == "shift":
            _, name, rd, ra, imm = op
            getattr(asm, name)(rd, ra, imm=imm)
        elif kind == "ldq":
            asm.ldq(op[1], ADDR_REG, op[2])
        elif kind == "ldq_nf":
            asm.ldq_nf(op[1], ADDR_REG, op[2])
        elif kind == "stq":
            asm.stq(op[1], ADDR_REG, op[2])
        elif kind == "prefetch":
            asm.prefetch(ADDR_REG, op[1])
        elif kind == "lda":
            asm.lda(op[1], ADDR_REG, op[2])
        elif kind == "move":
            asm.move(op[1], op[2])
        else:
            asm.nop()
    asm.label(f"op{len(ops)}")
    if looping:
        asm.subq(LOOP_REG, LOOP_REG, imm=1)
        asm.bne(LOOP_REG, "op0")
    asm.halt()
    return asm.build()


def _snapshot(core, memory, hierarchy):
    return {
        "regs": list(core.ctx.regs),
        "pc": core.ctx.pc,
        "halted": core.ctx.halted,
        "cycles": core.cycles,
        "stats": dataclasses.asdict(core.stats),
        "mem": dict(memory._words),
        "unmapped_reads": memory.unmapped_reads,
        "mem_stats": dataclasses.asdict(hierarchy.stats),
    }


class _RecordingWatchdog(Watchdog):
    """A watchdog that records every ``check(committed, cycles)``."""

    def __init__(self, check_interval):
        super().__init__()
        self.check_interval = check_interval
        self.checks = []

    def check(self, committed, cycles):
        self.checks.append((committed, cycles))
        super().check(committed, cycles)


#: Watchdog check intervals: short enough to land inside blocks.
_intervals = st.integers(min_value=1, max_value=64)


def _run(program, fast, interval, budget=10_000):
    config = MachineConfig()
    memory = DataMemory()
    hierarchy = MemoryHierarchy(config)
    watchdog = _RecordingWatchdog(interval)
    core = SMTCore(program, memory, hierarchy, config, fast=fast,
                   watchdog=watchdog)
    core.run(budget)
    state = _snapshot(core, memory, hierarchy)
    state["checks"] = watchdog.checks
    return state


class _LoggedRuntime(TridentRuntime):
    """A Trident runtime that records every ``on_branch`` call."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.branch_log = []

    def on_branch(self, pc, taken, target, cycle):
        self.branch_log.append((pc, taken, target, cycle))
        super().on_branch(pc, taken, target, cycle)


def _run_with_runtime(program, fast, budget, interference):
    # A quick helper thread, so hot branches form and link traces (and
    # the helper is busy, slowing issue) within a small budget.
    config = MachineConfig(helper_interference=interference,
                           helper_startup_cycles=20)
    trident = TridentConfig(optimizer_cycles_per_instruction=1)
    memory = DataMemory()
    hierarchy = MemoryHierarchy(config)
    runtime = _LoggedRuntime(program, config, trident,
                             PrefetchPolicy.SELF_REPAIRING)
    core = SMTCore(program, memory, hierarchy, config, runtime, fast=fast)
    core.run(budget)
    state = _snapshot(core, memory, hierarchy)
    state["runtime"] = {
        "branches": runtime.branch_log,
        "formed": runtime.traces_formed,
        "linked": runtime.traces_linked,
        "helper": (runtime.helper.jobs_run, runtime.helper.busy_until,
                   runtime.helper.total_busy_cycles),
        "events": len(runtime.events),
    }
    return repr(state)


@settings(max_examples=_examples(60), deadline=None)
@given(ops=programs, interval=_intervals)
def test_random_straight_line_identical(ops, interval):
    program = _build(ops)
    assert _run(program, True, interval) == _run(program, False, interval)


@settings(max_examples=_examples(60), deadline=None)
@given(ops=programs, budget=st.integers(min_value=1, max_value=40),
       interval=_intervals)
def test_random_budget_truncation_identical(ops, budget, interval):
    """A budget or watchdog check landing mid-block must clamp the
    block's run and still match the reference stepper exactly."""
    program = _build(ops)
    assert _run(program, True, interval, budget=budget) == _run(
        program, False, interval, budget=budget
    )


@settings(max_examples=_examples(60), deadline=None, derandomize=True)
@given(ops=branchy_programs, budget=st.integers(min_value=1, max_value=400),
       interval=_intervals)
def test_random_control_flow_identical(ops, budget, interval):
    """Every step template without a runtime, control flow included,
    inside and between basic blocks."""
    program = _build(ops)
    assert _run(program, True, interval, budget=budget) == _run(
        program, False, interval, budget=budget
    )


@settings(max_examples=_examples(60), deadline=None, derandomize=True)
@given(
    ops=branchy_programs,
    budget=st.integers(min_value=1, max_value=1500),
    interference=st.sampled_from([1.05, 1.0, 2.0]),
)
def test_random_control_flow_with_runtime_identical(ops, budget,
                                                    interference):
    """The runtime variant of every step template against the
    reference stepper: helper interference, ``on_branch`` arguments and
    trace entry."""
    program = _build(ops)
    assert _run_with_runtime(program, True, budget, interference) == (
        _run_with_runtime(program, False, budget, interference)
    )
