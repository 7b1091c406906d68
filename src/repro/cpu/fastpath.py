"""Pre-decoded fast interpreter for the SMT core.

The generic loop in :mod:`repro.cpu.core` re-decodes every instruction on
every dynamic execution: fetch the :class:`Instruction`, walk opcode
tests, chase ``self.X`` attributes, bounce through ``Executor.execute``,
``_issue``, ``_time_*`` and ``_retire``.  For deterministic workloads
that execute the same few hundred static instructions millions of times,
nearly all of that work is loop-invariant.

This module compiles each static instruction of the program **once**
into a closure that performs the entire architectural + timing step —
functional execute, issue, per-kind timing, retire, next-PC — with every
loop-invariant operand (register indices, displacement, branch target,
latency, hierarchy methods, stat objects) pre-bound.  ``SMTCore`` then
executes ``handlers[pc]()`` per step, or a straight ``for`` over a
basic block of pure-register handlers when no runtime/injector needs
per-step hooks.

A linked hot trace is straight-line code, so it goes further: the whole
body becomes ONE generated Python function (:func:`compile_trace`),
with every operand a literal.  It runs from ``core._trace_idx`` until
the trace completes, exits early, halts or the budget is committed, and
after each instruction runs ``_run_fast``'s post-step sequence in its
order: the ``runtime.tick`` guard, ``injector.tick`` when an injector
is attached, then the watchdog countdown and ``check``.  Between hook
calls the issue clock, fetch stall, ROB and load-queue cursors,
completion max and the trace's ``CoreStats`` counters live in locals.
They are written back (with the trace index) before every call that
reads core state — ``_finish_trace``, ``_enter_trace``,
``injector.tick``, ``watchdog.check`` — and at every return.  The
helper's job, busy-until and stall cycles are locals too, re-read after
``runtime.tick`` and ``injector.tick``, the only calls that change them.

Correctness contract: every closure and every generated instruction
replicates the corresponding branch of ``SMTCore._step_original`` /
``_step_trace`` *exactly* — same float arithmetic in the same order,
same stat-update order, same hook call sites — so slow and fast paths
produce byte-identical ``SimulationResult`` payloads.
``tests/test_fastpath_equivalence.py``, ``tests/test_trace_codegen.py``
and the golden fixtures under ``tests/data/golden/`` enforce this.

Mutability notes (why each capture is safe):

* ``ctx.regs``, ``core._reg_ready``, ``core._rob``, ``core._loadq`` and
  ``core._bp_table`` are lists assigned once in their owners' ``__init__``
  and only ever mutated in place.
* ``core.stats`` is one ``CoreStats`` for the core's lifetime;
  ``reset_measurement`` reassigns ``miss_count_by_pc``, so handlers read
  that dict through ``stats`` at call time, never capture it.
* Hierarchy/memory *methods* are stable (fault injection mutates fields
  like ``dram_latency_extra``, never rebinds methods), so bound methods
  are captured.
* ``PREFETCH`` handlers and generated trace code read ``inst.disp`` at
  call time: the self-repairing optimizer patches prefetch
  displacements in place (repro.core.repair), and a captured constant
  would silently undo every repair.  All other instruction fields are
  immutable after assembly and are captured.
"""

from __future__ import annotations

import hashlib
import linecache
import math

from ..isa.opcodes import (
    CONDITIONAL_BRANCHES,
    FP_ALU_OPCODES,
    INT_ALU_OPCODES,
    LOAD_OPCODES,
    Opcode,
)
from ..memory.stats import OutcomeKind
from .executor import ALU_OPS

#: The two L1-hit classifications, bound once so load handlers can test
#: ``LoadOutcome.is_miss`` with two identity checks instead of a
#: property call (identical truth value — see ``LoadOutcome.is_miss``).
_HIT = OutcomeKind.HIT
_HIT_PF = OutcomeKind.HIT_PREFETCHED

#: Opcodes whose handlers neither change control flow nor need per-step
#: hooks — eligible for batched basic-block execution.  Memory ops
#: qualify: the hierarchy keeps its own state and never reads the
#: core's scalar pipeline registers, so a load inside a batch sees
#: exactly the state it would see stepping one instruction at a time.
#: Control flow (branches, JMP, HALT) stays out: those write the fetch
#: stall / PC and must re-enter the dispatch loop.
BATCHABLE_OPCODES = frozenset(
    INT_ALU_OPCODES
    | FP_ALU_OPCODES
    | LOAD_OPCODES
    | {Opcode.STQ, Opcode.PREFETCH, Opcode.LDA, Opcode.MOVE, Opcode.NOP}
)

#: Branch-condition tests, keyed by opcode (ra is tested against zero).
_COND = {
    Opcode.BEQ: lambda v: v == 0,
    Opcode.BNE: lambda v: v != 0,
    Opcode.BLT: lambda v: v < 0,
    Opcode.BGE: lambda v: v >= 0,
}

_MEM_QUEUE = 64
_INT_LATENCY = 1
_MUL_LATENCY = 3
_FP_LATENCY = 4
_DIV_LATENCY = 12


#: Non-default ALU latencies; anything absent is ``_INT_LATENCY``.
#: Shared with ``SMTCore._time_alu`` so slow and fast paths cannot
#: disagree on a latency.
ALU_LATENCY = {
    Opcode.MULQ: _MUL_LATENCY,
    Opcode.DIVF: _DIV_LATENCY,
    Opcode.ADDF: _FP_LATENCY,
    Opcode.SUBF: _FP_LATENCY,
    Opcode.MULF: _FP_LATENCY,
}


def _alu_latency(op: Opcode) -> int:
    """The ``SMTCore._time_alu`` latency table, resolved at decode time."""
    return ALU_LATENCY.get(op, _INT_LATENCY)


#: Shared empty patch map for runtimes that never link traces.
_NO_TRACES: dict = {}


def _patch_lookup(runtime):
    """A bound ``dict.get`` for the fetch-time patch check.

    Handlers probe the code cache's patch map directly (one dict.get per
    committed instruction instead of two method calls).  Safe because the
    map is mutated in place by link/unlink, never reassigned, and
    ``overhead_only`` is fixed at runtime construction.
    """
    if runtime is None or runtime.overhead_only:
        return _NO_TRACES.get
    return runtime.code_cache._patch_map.get


def block_lengths(instructions) -> list:
    """``block_len[pc]`` = instructions from ``pc`` to the end of its
    basic block's straight-line batchable run (always >= 1; boundary
    opcodes get 1).

    A block ends before a boundary opcode and before a branch target (a
    leader), so blocks never overlap: starting at PC 0, ``pc +=
    block_len[pc]`` visits exactly the block leaders.
    """
    n = len(instructions)
    targets = {inst.target for inst in instructions}
    lens = [1] * n
    run = 0
    for i in range(n - 1, -1, -1):
        if instructions[i].opcode in BATCHABLE_OPCODES:
            run += 1
            lens[i] = run
        else:
            run = 0
        if i in targets:
            run = 0
    return lens


# ---------------------------------------------------------------------------
# Original-program handlers.  Each factory returns one zero-argument
# closure performing the full step for instruction ``inst`` at ``pc``.
#
# Every closure repeats the same inlined _issue/_retire sequences rather
# than calling shared helpers: the whole point of this module is that a
# step is ONE function call.
# ---------------------------------------------------------------------------
def compile_program(core):
    """Return ``(handlers, block_len)`` for ``core.program``."""
    instructions = core.program.instructions
    handlers = [_compile_original(core, pc, inst)
                for pc, inst in enumerate(instructions)]
    return handlers, block_lengths(instructions)


def _compile_original(core, pc, inst):
    op = inst.opcode
    if op in LOAD_OPCODES:
        return _orig_load(core, pc, inst)
    if op is Opcode.STQ:
        return _orig_store(core, pc, inst)
    if op is Opcode.PREFETCH:
        return _orig_prefetch(core, pc, inst)
    if op in CONDITIONAL_BRANCHES:
        return _orig_cond_branch(core, pc, inst)
    if op is Opcode.BR:
        return _orig_br(core, pc, inst)
    if op is Opcode.JMP:
        return _orig_jmp(core, pc, inst)
    if op is Opcode.HALT:
        return _orig_halt(core, pc, inst)
    if op is Opcode.NOP:
        return _orig_nop(core, pc, inst)
    if op is Opcode.LDA:
        return _orig_lda(core, pc, inst)
    if op is Opcode.MOVE:
        return _orig_move(core, pc, inst)
    if op in ALU_OPS:
        return _orig_alu(core, pc, inst)
    raise ValueError(f"unhandled opcode {op}")


def _orig_load(core, pc, inst):
    ctx = core.ctx
    regs = ctx.regs
    ready = core._reg_ready
    rob = core._rob
    rob_len = len(rob)
    loadq = core._loadq
    stats = core.stats
    runtime = core.runtime
    has_runtime = runtime is not None
    helper = runtime.helper if has_runtime else None
    patch_get = _patch_lookup(runtime)
    issue_cost = core._issue_cost
    interference = core.config.helper_interference
    read = (core.memory.read_quiet if inst.opcode is Opcode.LDQ_NF
            else core.memory.read)
    hier_load = core.hierarchy.load
    ra, rd, disp = inst.ra, inst.rd, inst.disp
    freads = rd != 31                      # functional register write
    twrites = rd is not None and rd != 31  # timing ready[] update
    next_pc = pc + 1
    enter_trace = core._enter_trace

    def step():
        ea = int(regs[ra]) + disp
        if freads:
            regs[rd] = read(ea)
        # _issue
        clock = core._issue_clock
        cost = issue_cost
        if has_runtime and helper.busy_until > clock:
            cost = issue_cost * interference
        issue = clock + cost
        stall = core._fetch_stall_until
        if issue < stall:
            issue = stall
        ri = core._rob_idx
        rob_limit = rob[ri]
        if issue < rob_limit:
            issue = rob_limit
        core._issue_clock = issue
        stats.committed += 1
        # _time_load
        access = issue
        addr_ready = ready[ra]
        if addr_ready > access:
            access = addr_ready
        li = core._loadq_idx
        lq_limit = loadq[li]
        if lq_limit > access:
            access = lq_limit
        outcome = hier_load(pc, ea, int(access))
        completion = access + outcome.latency
        loadq[li] = completion
        li += 1
        if li == _MEM_QUEUE:
            li = 0
        core._loadq_idx = li
        if twrites:
            ready[rd] = completion
        stats.loads_executed += 1
        kind = outcome.kind
        if kind is not _HIT and kind is not _HIT_PF:  # outcome.is_miss
            stats.misses_total += 1
            by_pc = stats.miss_count_by_pc
            by_pc[pc] = by_pc.get(pc, 0) + 1
        # _retire
        rob[ri] = completion
        ri += 1
        if ri == rob_len:
            ri = 0
        core._rob_idx = ri
        if completion > core._completion_max:
            core._completion_max = completion
        ctx.pc = next_pc
        if has_runtime:
            t = patch_get(next_pc)
            if t is not None:
                enter_trace(t, next_pc)

    return step


def _orig_store(core, pc, inst):
    ctx = core.ctx
    regs = ctx.regs
    ready = core._reg_ready
    rob = core._rob
    rob_len = len(rob)
    stats = core.stats
    runtime = core.runtime
    has_runtime = runtime is not None
    helper = runtime.helper if has_runtime else None
    patch_get = _patch_lookup(runtime)
    issue_cost = core._issue_cost
    interference = core.config.helper_interference
    write = core.memory.write
    hier_store = core.hierarchy.store
    ra, rd, disp = inst.ra, inst.rd, inst.disp
    next_pc = pc + 1
    enter_trace = core._enter_trace

    def step():
        ea = int(regs[ra]) + disp
        write(ea, regs[rd])
        clock = core._issue_clock
        cost = issue_cost
        if has_runtime and helper.busy_until > clock:
            cost = issue_cost * interference
        issue = clock + cost
        stall = core._fetch_stall_until
        if issue < stall:
            issue = stall
        ri = core._rob_idx
        rob_limit = rob[ri]
        if issue < rob_limit:
            issue = rob_limit
        core._issue_clock = issue
        stats.committed += 1
        completion = max(issue, ready[ra], ready[rd]) + 1
        hier_store(ea, int(completion))
        rob[ri] = completion
        ri += 1
        if ri == rob_len:
            ri = 0
        core._rob_idx = ri
        if completion > core._completion_max:
            core._completion_max = completion
        ctx.pc = next_pc
        if has_runtime:
            t = patch_get(next_pc)
            if t is not None:
                enter_trace(t, next_pc)

    return step


def _orig_prefetch(core, pc, inst):
    ctx = core.ctx
    regs = ctx.regs
    ready = core._reg_ready
    rob = core._rob
    rob_len = len(rob)
    stats = core.stats
    runtime = core.runtime
    has_runtime = runtime is not None
    helper = runtime.helper if has_runtime else None
    patch_get = _patch_lookup(runtime)
    issue_cost = core._issue_cost
    interference = core.config.helper_interference
    hier_prefetch = core.hierarchy.software_prefetch
    ra = inst.ra
    next_pc = pc + 1
    enter_trace = core._enter_trace

    def step():
        ea = int(regs[ra]) + inst.disp  # disp read live: repairs patch it
        clock = core._issue_clock
        cost = issue_cost
        if has_runtime and helper.busy_until > clock:
            cost = issue_cost * interference
        issue = clock + cost
        stall = core._fetch_stall_until
        if issue < stall:
            issue = stall
        ri = core._rob_idx
        rob_limit = rob[ri]
        if issue < rob_limit:
            issue = rob_limit
        core._issue_clock = issue
        stats.committed += 1
        access = max(issue, ready[ra])
        hier_prefetch(ea, int(access))
        completion = access
        rob[ri] = completion
        ri += 1
        if ri == rob_len:
            ri = 0
        core._rob_idx = ri
        if completion > core._completion_max:
            core._completion_max = completion
        ctx.pc = next_pc
        if has_runtime:
            t = patch_get(next_pc)
            if t is not None:
                enter_trace(t, next_pc)

    return step


def _orig_cond_branch(core, pc, inst):
    ctx = core.ctx
    regs = ctx.regs
    ready = core._reg_ready
    rob = core._rob
    rob_len = len(rob)
    bp = core._bp_table
    stats = core.stats
    runtime = core.runtime
    has_runtime = runtime is not None
    helper = runtime.helper if has_runtime else None
    patch_get = _patch_lookup(runtime)
    issue_cost = core._issue_cost
    interference = core.config.helper_interference
    penalty = core.config.mispredict_penalty
    cond = _COND[inst.opcode]
    ra, target = inst.ra, inst.target
    slot = pc & 4095
    fall_pc = pc + 1
    enter_trace = core._enter_trace

    def step():
        taken = cond(regs[ra])
        clock = core._issue_clock
        cost = issue_cost
        if has_runtime and helper.busy_until > clock:
            cost = issue_cost * interference
        issue = clock + cost
        stall = core._fetch_stall_until
        if issue < stall:
            issue = stall
        ri = core._rob_idx
        rob_limit = rob[ri]
        if issue < rob_limit:
            issue = rob_limit
        core._issue_clock = issue
        stats.committed += 1
        stats.conditional_branches += 1
        resolve = max(issue, ready[ra]) + _INT_LATENCY
        # _predict_branch
        counter = bp[slot]
        predicted = counter >= 2
        if taken:
            if counter < 3:
                bp[slot] = counter + 1
        else:
            if counter > 0:
                bp[slot] = counter - 1
        if predicted != taken:
            stats.branch_mispredicts += 1
            core._fetch_stall_until = resolve + penalty
        completion = resolve
        next_pc = target if taken else fall_pc
        if has_runtime:
            runtime.on_branch(pc, taken, target, issue)
        rob[ri] = completion
        ri += 1
        if ri == rob_len:
            ri = 0
        core._rob_idx = ri
        if completion > core._completion_max:
            core._completion_max = completion
        ctx.pc = next_pc
        if has_runtime:
            t = patch_get(next_pc)
            if t is not None:
                enter_trace(t, next_pc)

    return step


def _orig_br(core, pc, inst):
    ctx = core.ctx
    rob = core._rob
    rob_len = len(rob)
    stats = core.stats
    runtime = core.runtime
    has_runtime = runtime is not None
    helper = runtime.helper if has_runtime else None
    patch_get = _patch_lookup(runtime)
    issue_cost = core._issue_cost
    interference = core.config.helper_interference
    target = inst.target
    enter_trace = core._enter_trace

    def step():
        clock = core._issue_clock
        cost = issue_cost
        if has_runtime and helper.busy_until > clock:
            cost = issue_cost * interference
        issue = clock + cost
        stall = core._fetch_stall_until
        if issue < stall:
            issue = stall
        ri = core._rob_idx
        rob_limit = rob[ri]
        if issue < rob_limit:
            issue = rob_limit
        core._issue_clock = issue
        stats.committed += 1
        completion = issue
        rob[ri] = completion
        ri += 1
        if ri == rob_len:
            ri = 0
        core._rob_idx = ri
        if completion > core._completion_max:
            core._completion_max = completion
        ctx.pc = target
        if has_runtime:
            t = patch_get(target)
            if t is not None:
                enter_trace(t, target)

    return step


def _orig_jmp(core, pc, inst):
    ctx = core.ctx
    regs = ctx.regs
    ready = core._reg_ready
    rob = core._rob
    rob_len = len(rob)
    stats = core.stats
    runtime = core.runtime
    has_runtime = runtime is not None
    helper = runtime.helper if has_runtime else None
    patch_get = _patch_lookup(runtime)
    issue_cost = core._issue_cost
    interference = core.config.helper_interference
    penalty = core.config.mispredict_penalty
    ra = inst.ra
    enter_trace = core._enter_trace

    def step():
        next_pc = int(regs[ra])
        clock = core._issue_clock
        cost = issue_cost
        if has_runtime and helper.busy_until > clock:
            cost = issue_cost * interference
        issue = clock + cost
        stall = core._fetch_stall_until
        if issue < stall:
            issue = stall
        ri = core._rob_idx
        rob_limit = rob[ri]
        if issue < rob_limit:
            issue = rob_limit
        core._issue_clock = issue
        stats.committed += 1
        resolve = max(issue, ready[ra]) + _INT_LATENCY
        core._fetch_stall_until = resolve + penalty
        completion = resolve
        rob[ri] = completion
        ri += 1
        if ri == rob_len:
            ri = 0
        core._rob_idx = ri
        if completion > core._completion_max:
            core._completion_max = completion
        ctx.pc = next_pc
        if has_runtime:
            t = patch_get(next_pc)
            if t is not None:
                enter_trace(t, next_pc)

    return step


def _orig_halt(core, pc, inst):
    ctx = core.ctx
    rob = core._rob
    rob_len = len(rob)
    stats = core.stats
    runtime = core.runtime
    has_runtime = runtime is not None
    helper = runtime.helper if has_runtime else None
    patch_get = _patch_lookup(runtime)
    issue_cost = core._issue_cost
    interference = core.config.helper_interference
    next_pc = pc + 1

    def step():
        ctx.halted = True
        clock = core._issue_clock
        cost = issue_cost
        if has_runtime and helper.busy_until > clock:
            cost = issue_cost * interference
        issue = clock + cost
        stall = core._fetch_stall_until
        if issue < stall:
            issue = stall
        ri = core._rob_idx
        rob_limit = rob[ri]
        if issue < rob_limit:
            issue = rob_limit
        core._issue_clock = issue
        stats.committed += 1
        completion = issue
        rob[ri] = completion
        ri += 1
        if ri == rob_len:
            ri = 0
        core._rob_idx = ri
        if completion > core._completion_max:
            core._completion_max = completion
        ctx.pc = next_pc
        # halted: no trace-entry check (matches _step_original's guard)

    return step


def _orig_nop(core, pc, inst):
    ctx = core.ctx
    rob = core._rob
    rob_len = len(rob)
    stats = core.stats
    runtime = core.runtime
    has_runtime = runtime is not None
    helper = runtime.helper if has_runtime else None
    patch_get = _patch_lookup(runtime)
    issue_cost = core._issue_cost
    interference = core.config.helper_interference
    next_pc = pc + 1
    enter_trace = core._enter_trace

    def step():
        clock = core._issue_clock
        cost = issue_cost
        if has_runtime and helper.busy_until > clock:
            cost = issue_cost * interference
        issue = clock + cost
        stall = core._fetch_stall_until
        if issue < stall:
            issue = stall
        ri = core._rob_idx
        rob_limit = rob[ri]
        if issue < rob_limit:
            issue = rob_limit
        core._issue_clock = issue
        stats.committed += 1
        completion = issue
        rob[ri] = completion
        ri += 1
        if ri == rob_len:
            ri = 0
        core._rob_idx = ri
        if completion > core._completion_max:
            core._completion_max = completion
        ctx.pc = next_pc
        if has_runtime:
            t = patch_get(next_pc)
            if t is not None:
                enter_trace(t, next_pc)

    return step


def _orig_lda(core, pc, inst):
    return _orig_reg_op(core, pc, inst, kind="lda")


def _orig_move(core, pc, inst):
    return _orig_reg_op(core, pc, inst, kind="move")


def _orig_alu(core, pc, inst):
    return _orig_reg_op(core, pc, inst, kind="alu")


def _orig_reg_op(core, pc, inst, kind):
    """LDA / MOVE / three-operand ALU: pure register ops, ALU timing."""
    ctx = core.ctx
    regs = ctx.regs
    ready = core._reg_ready
    rob = core._rob
    rob_len = len(rob)
    stats = core.stats
    runtime = core.runtime
    has_runtime = runtime is not None
    helper = runtime.helper if has_runtime else None
    patch_get = _patch_lookup(runtime)
    issue_cost = core._issue_cost
    interference = core.config.helper_interference
    ra, rb, rd = inst.ra, inst.rb, inst.rd
    imm, disp = inst.imm, inst.disp
    op_fn = ALU_OPS.get(inst.opcode)
    latency = _alu_latency(inst.opcode)
    is_lda = kind == "lda"
    is_move = kind == "move"
    fwrites = rd != 31                     # functional write guard
    twrites = rd is not None and rd != 31  # timing ready[] guard
    has_ra = ra is not None
    has_rb = rb is not None
    next_pc = pc + 1
    enter_trace = core._enter_trace

    def step():
        if is_lda:
            if fwrites:
                regs[rd] = int(regs[ra]) + disp
        elif is_move:
            if fwrites:
                regs[rd] = regs[ra]
        else:
            a = regs[ra]
            b = regs[rb] if has_rb else imm
            value = op_fn(a, b)
            if fwrites:
                regs[rd] = value
        clock = core._issue_clock
        cost = issue_cost
        if has_runtime and helper.busy_until > clock:
            cost = issue_cost * interference
        issue = clock + cost
        stall = core._fetch_stall_until
        if issue < stall:
            issue = stall
        ri = core._rob_idx
        rob_limit = rob[ri]
        if issue < rob_limit:
            issue = rob_limit
        core._issue_clock = issue
        stats.committed += 1
        # _time_alu
        start = issue
        if has_ra:
            r = ready[ra]
            if r > start:
                start = r
        if has_rb:
            r = ready[rb]
            if r > start:
                start = r
        completion = start + latency
        if twrites:
            ready[rd] = completion
        rob[ri] = completion
        ri += 1
        if ri == rob_len:
            ri = 0
        core._rob_idx = ri
        if completion > core._completion_max:
            core._completion_max = completion
        ctx.pc = next_pc
        if has_runtime:
            t = patch_get(next_pc)
            if t is not None:
                enter_trace(t, next_pc)

    return step


# ---------------------------------------------------------------------------
# Linked traces.  A trace body is straight-line code, so it runs as ONE
# generated function per trace: ``trace_source`` renders the body as
# Python source with every captured operand a literal, ``compile_trace``
# compiles each distinct source once per process and binds the code to
# one core.  The function replicates ``SMTCore._step_trace`` followed by
# the post-step sequence of ``SMTCore._run_fast`` for every instruction,
# keeping the scalar pipeline state and the trace's stat counters in
# locals between hook calls.  Traces only execute under a runtime, so the
# issue-interference check is unconditional here.
# ---------------------------------------------------------------------------

#: Generated ``bind`` functions, keyed by their source: cores that run
#: the same trace shape share one code object (a sweep re-forms the same
#: traces in every cell of a workload).  Each entry holds about 100 KB
#: with its ``linecache`` lines, so the cache starts over past
#: ``_TRACE_BINDERS_MAX`` entries; bound functions keep their code.
_TRACE_BINDERS: dict = {}
_TRACE_BINDERS_MAX = 256

#: Globals of the generated code: the L1-hit kinds and the ALU value
#: functions, one name per opcode (``op_addq``).
_TRACE_GLOBALS = {
    "HIT": _HIT,
    "HIT_PF": _HIT_PF,
    **{f"op_{op.value}": fn for op, fn in ALU_OPS.items()},
}

_COND_TEST = {
    Opcode.BEQ: "== 0",
    Opcode.BNE: "!= 0",
    Opcode.BLT: "< 0",
    Opcode.BGE: ">= 0",
}

#: Per-core bindings (run once per trace per core), the helpers the
#: generated code calls on its rare paths, and the run function's entry.
#: ``{state}`` is the run function's locals that ``save`` writes back;
#: ``save`` also records the trace index unless it is None (the trace
#: has finished).
_BIND_HEAD = """\
def bind(core, trace, live, consts, patch_get):
    ctx = core.ctx
    regs = ctx.regs
    ready = core._reg_ready
    rob = core._rob
    rob_len = len(rob)
    loadq = core._loadq
    bp = core._bp_table
    stats = core.stats
    runtime = core.runtime
    helper = runtime.helper
    queued = runtime.events._queue
    tick = runtime.tick
    on_trace_load = runtime.on_trace_load
    issue_cost = core._issue_cost
    busy_cost = issue_cost * core.config.helper_interference
    penalty = core.config.mispredict_penalty
    read = core.memory.read
    read_quiet = core.memory.read_quiet
    write = core.memory.write
    hier_load = core.hierarchy.load
    hier_load_syn = core.hierarchy.load_synthetic
    hier_store = core.hierarchy.store
    hier_prefetch = core.hierarchy.software_prefetch
    finish = core._finish_trace
    enter = core._enter_trace
    injector = core.injector
    watchdog = core.watchdog

    def save(idx, {state}):
        if idx is not None:
            core._trace_idx = idx
        core._issue_clock = clock
        core._fetch_stall_until = stall
        core._rob_idx = ri
        core._loadq_idx = li
        core._completion_max = cmax
        stats.trace_committed += committed - stats.committed
        stats.committed = committed
{save_counters}
    def missed(pc):
        stats.misses_total += 1
        stats.misses_in_traces += 1
        by_pc = stats.miss_count_by_pc
        by_pc[pc] = by_pc.get(pc, 0) + 1

    def ticked(clock):
        tick(clock)
        return helper._job, helper.busy_until, helper.stalled_until

    def injected(idx, {state}):
        save(idx, {state})
        injector.tick(clock, committed)
        return helper._job, helper.busy_until, helper.stalled_until

    def paused(idx, until, {state}):
        save(idx, {state})
        if until <= 0:
            until = watchdog.check_interval
            watchdog.check(committed, max(cmax, clock))
        return until

    def after(until, {state}):
        # The post-step sequence once the trace has finished or halted;
        # the helper state is read live.
        job = helper._job
        if (clock >= job.ready) if job is not None else (
            queued and clock >= helper.stalled_until
        ):
            tick(clock)
        if injector is not None:
            save(None, {state})
            injector.tick(clock, committed)
        if watchdog is not None:
            until -= 1
            if until <= 0:
                until = paused(None, until, {state})
        return until

    def left(pc, completed, until, {state}):
        # Finish the trace, continue at ``pc``, then the post-step sequence.
        if not completed:
            stats.trace_exits_early += 1
        save(None, {state})
        finish(trace, completed)
        ctx.pc = pc
        t = patch_get(pc)
        if t is not None:
            enter(t, pc)
        return after(until, {state})

    def run(start, budget, until):
        clock = core._issue_clock
        stall = core._fetch_stall_until
        ri = core._rob_idx
        li = core._loadq_idx
        cmax = core._completion_max
        committed = stats.committed
{load_counters}
        while True:
            job = helper._job
            busy = helper.busy_until
            stalled = helper.stalled_until
"""

#: Optional counters: (local name, ``CoreStats`` field).
_COUNTERS = (
    ("synthetic", "synthetic_executed"),
    ("loads", "loads_executed"),
    ("branches", "conditional_branches"),
)

_ISSUE = """\
clock += busy_cost if busy > clock else issue_cost
if clock < stall:
    clock = stall
t = rob[ri]
if clock < t:
    clock = t
"""

_RETIRE = """\
rob[ri] = c
ri += 1
if ri == rob_len:
    ri = 0
if c > cmax:
    cmax = c
"""

#: ``_run_fast``'s ``runtime.tick`` guard on the helper state locals.
_TICK = """\
if (clock >= job.ready) if job is not None else (queued and clock >= stalled):
    job, busy, stalled = ticked(clock)
"""


def compile_trace(core, trace):
    """Return ``run(start, budget, until)`` for ``trace`` on ``core``.

    ``run`` executes the body from index ``start`` until the trace
    completes, exits early or halts, or ``budget`` instructions are
    committed, and returns the watchdog countdown ``until``.  When the
    trace completes and the core re-enters the same trace, it goes round
    again without returning.
    """
    source, live, consts = trace_source(
        trace.body,
        trace.fallthrough_pc,
        injector=core.injector is not None,
        watchdog=core.watchdog is not None,
    )
    bind = _TRACE_BINDERS.get(source)
    if bind is None:
        if len(_TRACE_BINDERS) >= _TRACE_BINDERS_MAX:
            for old in _TRACE_BINDERS.values():
                linecache.cache.pop(old.__code__.co_filename, None)
            _TRACE_BINDERS.clear()
        bind = _TRACE_BINDERS[source] = _load_binder(source)
    return bind(core, trace, live, consts, _patch_lookup(core.runtime))


def _load_binder(source):
    """Compile ``source`` and return its ``bind``; the source is
    registered with :mod:`linecache` so tracebacks and profilers show
    the generated lines."""
    digest = hashlib.blake2b(source.encode(), digest_size=6).hexdigest()
    filename = f"<trace {digest}>"
    linecache.cache[filename] = (
        len(source), None, source.splitlines(True), filename
    )
    namespace = dict(_TRACE_GLOBALS)
    exec(compile(source, filename, "exec"), namespace)
    return namespace["bind"]


def trace_source(body, fallthrough_pc, injector, watchdog):
    """Python source of the ``bind`` function for a trace body.

    Returns ``(source, live, consts)``: the ``PREFETCH`` instructions the
    code reads ``disp`` from at run time (repairs patch it in place) and
    the operands that have no exact literal, both passed to ``bind``.
    ``injector`` and ``watchdog`` say whether the core has each hook.
    """
    if not body:
        raise ValueError("a trace body needs at least one instruction")
    live = []
    consts = []

    def lit(value):
        if value is None or type(value) in (int, bool) or (
            type(value) is float and math.isfinite(value)
        ):
            return repr(value)
        consts.append(value)
        return f"consts[{len(consts) - 1}]"

    ops = [tinst.inst.opcode for tinst in body]
    used = (
        any(tinst.synthetic for tinst in body),
        any(op in LOAD_OPCODES and not tinst.synthetic
            for op, tinst in zip(ops, body)),
        any(op in CONDITIONAL_BRANCHES or op is Opcode.JMP for op in ops),
    )
    counters = [name for (name, _), on in zip(_COUNTERS, used) if on]
    fields = [field for (_, field), on in zip(_COUNTERS, used) if on]
    state = ", ".join(["clock, stall, ri, li, cmax, committed"] + counters)

    out = []

    def emit(depth, text):
        pad = "    " * depth
        out.extend(pad + line if line else line
                   for line in text.rstrip("\n").split("\n"))

    def hooks(idx, budget):
        """The post-step sequence of ``_run_fast``, then its budget test
        when ``budget``; ``idx`` is the trace index to record before a
        hook that reads core state."""
        emit(4, _TICK)
        if injector:
            emit(4, f"job, busy, stalled = injected({idx}, {state})")
        pause = f"until = paused({idx}, until, {state})"
        if watchdog and budget:
            emit(4, "until -= 1\n"
                    "if until <= 0 or committed >= budget:\n"
                    f"    {pause}\n"
                    "    if committed >= budget:\n        return until")
        elif watchdog:
            emit(4, f"until -= 1\nif until <= 0:\n    {pause}")
        elif budget:
            emit(4, f"if committed >= budget:\n"
                    f"    save({idx}, {state})\n    return until")

    for idx, tinst in enumerate(body):
        inst = tinst.inst
        op = ops[idx]
        orig_pc = tinst.orig_pc
        syn = tinst.synthetic
        ra, rb, rd = inst.ra, inst.rb, inst.rd
        last = idx == len(body) - 1
        emit(3, f"if start <= {idx}:")
        emit(4, f"# {idx}: {op.value} @ pc {orig_pc}"
                + (" (synthetic)" if syn else ""))
        count = "synthetic += 1" if syn else "committed += 1"
        exit_test = None
        # Functional execute, issue, count, per-kind timing, retire:
        # the order of the per-kind factories this replaces.
        if op in LOAD_OPCODES:
            reader = "read_quiet" if op is Opcode.LDQ_NF else "read"
            emit(4, f"ea = int(regs[{ra}]) + {lit(inst.disp)}")
            if rd != 31:
                emit(4, f"regs[{rd}] = {reader}(ea)")
            emit(4, _ISSUE + count)
            emit(4, f"a = clock\nt = ready[{ra}]\nif t > a:\n    a = t\n"
                    "t = loadq[li]\nif t > a:\n    a = t")
            if syn:
                emit(4, "o = hier_load_syn(ea, int(a))")
            else:
                emit(4, f"o = hier_load({orig_pc}, ea, int(a))")
            emit(4, f"c = a + o.latency\nloadq[li] = c\nli += 1\n"
                    f"if li == {_MEM_QUEUE}:\n    li = 0")
            if rd is not None and rd != 31:
                emit(4, f"ready[{rd}] = c")
            if not syn:
                emit(4, "loads += 1\nk = o.kind\n"
                        "if k is not HIT and k is not HIT_PF:\n"
                        f"    missed({orig_pc})\n"
                        f"on_trace_load({orig_pc}, trace, ea, o, a)")
        elif op is Opcode.STQ:
            emit(4, f"ea = int(regs[{ra}]) + {lit(inst.disp)}\n"
                    f"write(ea, regs[{rd}])")
            emit(4, _ISSUE + count)
            emit(4, f"c = max(clock, ready[{ra}], ready[{rd}]) + 1\n"
                    "hier_store(ea, int(c))")
        elif op is Opcode.PREFETCH:
            live.append(inst)
            emit(4, f"ea = int(regs[{ra}]) + live[{len(live) - 1}].disp"
                    "  # repairs patch disp")
            emit(4, _ISSUE + count)
            emit(4, f"c = clock\nt = ready[{ra}]\nif t > c:\n    c = t\n"
                    "hier_prefetch(ea, int(c))")
        elif op in CONDITIONAL_BRANCHES or op is Opcode.JMP:
            # _step_trace routes JMP through the conditional-branch arm
            # (always taken).
            if op is Opcode.JMP:
                emit(4, "tk = True")
            else:
                emit(4, f"tk = regs[{ra}] {_COND_TEST[op]}")
            emit(4, _ISSUE + count + "\nbranches += 1")
            slot = orig_pc & 4095
            emit(4, f"c = clock\nt = ready[{ra}]\nif t > c:\n    c = t\n"
                    f"c += {_INT_LATENCY}\nn = bp[{slot}]\nif tk:\n"
                    f"    if n < 3:\n        bp[{slot}] = n + 1\n"
                    f"elif n > 0:\n    bp[{slot}] = n - 1\n"
                    "if (n >= 2) != tk:\n"
                    "    stats.branch_mispredicts += 1\n"
                    "    stall = c + penalty")
            expected = tinst.expected_taken
            fall = orig_pc + 1
            if expected is True:
                exit_test, exit_pc = "not tk", fall
            elif expected is False:
                exit_test, exit_pc = "tk", inst.target
            else:
                exit_test = f"tk != {expected!r}"
                exit_pc = f"{inst.target} if tk else {fall}"
        elif op is Opcode.HALT:
            emit(4, "ctx.halted = True")
            emit(4, _ISSUE + count + "\nc = clock")
        else:
            # BR and NOP complete at issue; LDA, MOVE and the ALU ops go
            # through ALU timing.
            if op is Opcode.LDA:
                if rd != 31:
                    emit(4, f"regs[{rd}] = int(regs[{ra}]) + {lit(inst.disp)}")
            elif op is Opcode.MOVE:
                if rd != 31:
                    emit(4, f"regs[{rd}] = regs[{ra}]")
            elif op in ALU_OPS:
                b = f"regs[{rb}]" if rb is not None else lit(inst.imm)
                value = f"op_{op.value}(regs[{ra}], {b})"
                emit(4, f"regs[{rd}] = {value}" if rd != 31 else value)
            elif op is not Opcode.BR and op is not Opcode.NOP:
                raise ValueError(f"unhandled opcode {op}")
            emit(4, _ISSUE + count + "\nc = clock")
            if op is not Opcode.BR and op is not Opcode.NOP:
                for src in (ra, rb):
                    if src is not None:
                        emit(4, f"t = ready[{src}]\nif t > c:\n    c = t")
                emit(4, f"c += {_alu_latency(op)}")
                if rd is not None and rd != 31:
                    emit(4, f"ready[{rd}] = c")
        emit(4, _RETIRE)

        if op is Opcode.HALT:
            # Drop the trace without finishing it (no obs emit, no
            # on_trace_execution), as _step_trace's halted tail does.
            emit(4, f"core._trace = None\nsave({idx}, {state})\n"
                    f"return after(until, {state})")
            continue
        if exit_test is not None:
            emit(4, f"if {exit_test}:\n"
                    f"    return left({exit_pc}, False, until, {state})")
        if last:
            emit(4, f"until = left({fallthrough_pc}, True, until, {state})\n"
                    "if committed >= budget or core._trace is not trace:\n"
                    "    return until\nstart = 0")
        else:
            # A synthetic step commits nothing, so the budget test the
            # step before passed still holds.
            hooks(idx + 1, budget=not syn)

    head = _BIND_HEAD.format(
        state=state,
        save_counters="".join(f"        stats.{field} = {name}\n"
                              for name, field in zip(counters, fields)),
        load_counters="\n".join(f"        {name} = stats.{field}"
                                for name, field in zip(counters, fields)),
    )
    return head + "\n".join(out) + "\n    return run\n", live, consts


# ---------------------------------------------------------------------------
# Batched basic blocks.  The batched loop in ``SMTCore._run_fast`` (taken
# only when neither a runtime nor an injector needs per-step hooks) can
# go one step further than calling per-instruction closures in sequence:
# a straight-line run of pure-register instructions touches no memory,
# no control flow, and no hook, so the scalar pipeline state
# (``_issue_clock``, ``_rob_idx``, ``_completion_max``, the fetch stall)
# can live in locals for the whole run and be written back once.  That
# removes the per-instruction closure call and every per-instruction
# ``core.<attr>`` read/write, while performing the *identical* float
# arithmetic in the identical order.
#
# ``stats.committed`` is accumulated and added once per run: nothing
# observes it between the instructions of a batch (the watchdog clamp in
# ``_run_fast`` guarantees checks land on batch boundaries), and integer
# addition is associative.  ``_fetch_stall_until`` is read once: only
# branch/jump handlers write it, and a batch contains none.  The memory
# hierarchy is called through the same bound methods with the same
# arguments in the same order as the per-instruction handlers, so every
# fill, outcome and memory stat is identical.
# ---------------------------------------------------------------------------
_K_LDA, _K_MOVE, _K_ALU, _K_NOP = 0, 1, 2, 3
_K_LOAD, _K_STORE, _K_PREFETCH = 4, 5, 6


def compile_batches(core):
    """Return ``batches[pc]``: at each block leader whose block is at
    least two instructions long, a closure that executes the whole
    block; None everywhere else (the per-instruction handlers step
    there, including the rest of a block entered mid-way after a budget
    or watchdog clamp).

    A leader's batch is compiled on its first full-block entry, so a
    run compiles only the blocks it executes whole, each once: together
    they cover at most ``len(program)`` instructions.

    Only used by cores running without runtime/injector hooks, so the
    helper-interference check compiles away entirely (matching the
    per-instruction handlers, which compiled it away for the same
    reason when ``core.runtime`` is None).
    """
    instructions = core.program.instructions
    lens = block_lengths(instructions)
    batches = [None] * len(instructions)
    pc = 0
    while pc < len(lens):
        ln = lens[pc]
        if ln >= 2:
            batches[pc] = _compile_on_entry(
                core, batches, pc, instructions[pc:pc + ln]
            )
        pc += ln
    return batches


def _compile_on_entry(core, batches, pc, insts):
    """A stand-in for ``batches[pc]`` that compiles the block's batch,
    installs it in its place and runs it."""
    def first_entry():
        batch = batches[pc] = _compile_batch(core, pc, insts)
        batch()

    return first_entry


def _compile_batch(core, pc, insts):
    ctx = core.ctx
    regs = ctx.regs
    ready = core._reg_ready
    rob = core._rob
    rob_len = len(rob)
    loadq = core._loadq
    stats = core.stats
    issue_cost = core._issue_cost
    read = core.memory.read
    read_quiet = core.memory.read_quiet
    write = core.memory.write
    hier_load = core.hierarchy.load
    hier_store = core.hierarchy.store
    hier_prefetch = core.hierarchy.software_prefetch
    n = len(insts)
    next_pc = pc + n

    specs = []
    for i, inst in enumerate(insts):
        op = inst.opcode
        if op is Opcode.LDA:
            kind = _K_LDA
        elif op is Opcode.MOVE:
            kind = _K_MOVE
        elif op is Opcode.NOP:
            kind = _K_NOP
        elif op in LOAD_OPCODES:
            kind = _K_LOAD
        elif op is Opcode.STQ:
            kind = _K_STORE
        elif op is Opcode.PREFETCH:
            kind = _K_PREFETCH
        else:
            kind = _K_ALU
        rd = inst.rd
        specs.append((
            kind,
            ALU_OPS.get(op),
            rd,
            inst.ra,
            inst.rb,
            inst.imm,
            inst.disp,
            _alu_latency(op),
            rd != 31,                       # fwrites (as _orig_reg_op)
            rd is not None and rd != 31,    # twrites
            inst.ra is not None,
            inst.rb is not None,
            pc + i,                         # this instruction's pc
            read_quiet if op is Opcode.LDQ_NF else read,
            inst,                           # PREFETCH reads disp live
        ))
    specs = tuple(specs)

    def run_block():
        clock = core._issue_clock
        stall = core._fetch_stall_until
        ri = core._rob_idx
        li = core._loadq_idx
        cmax = core._completion_max
        for (kind, op_fn, rd, ra, rb, imm, disp, latency,
             fwrites, twrites, has_ra, has_rb, ipc,
             read_fn, inst_ref) in specs:
            # Functional execute (same per-kind expressions as the
            # per-instruction factories).
            if kind == _K_ALU:
                b = regs[rb] if has_rb else imm
                value = op_fn(regs[ra], b)
                if fwrites:
                    regs[rd] = value
            elif kind == _K_LOAD:
                ea = int(regs[ra]) + disp
                if fwrites:
                    regs[rd] = read_fn(ea)
            elif kind == _K_LDA:
                if fwrites:
                    regs[rd] = int(regs[ra]) + disp
            elif kind == _K_MOVE:
                if fwrites:
                    regs[rd] = regs[ra]
            elif kind == _K_STORE:
                ea = int(regs[ra]) + disp
                write(ea, regs[rd])
            elif kind == _K_PREFETCH:
                # disp read live: repairs patch it in place
                ea = int(regs[ra]) + inst_ref.disp
            # _issue (no runtime => no interference arm).
            issue = clock + issue_cost
            if issue < stall:
                issue = stall
            lim = rob[ri]
            if issue < lim:
                issue = lim
            clock = issue
            # Per-kind timing (mirrors _time_alu / _time_load / the
            # store and prefetch arms of the per-instruction handlers).
            if kind <= _K_ALU:  # LDA / MOVE / ALU
                start = issue
                if has_ra:
                    r = ready[ra]
                    if r > start:
                        start = r
                if has_rb:
                    r = ready[rb]
                    if r > start:
                        start = r
                completion = start + latency
                if twrites:
                    ready[rd] = completion
            elif kind == _K_LOAD:
                access = issue
                addr_ready = ready[ra]
                if addr_ready > access:
                    access = addr_ready
                lq_limit = loadq[li]
                if lq_limit > access:
                    access = lq_limit
                outcome = hier_load(ipc, ea, int(access))
                completion = access + outcome.latency
                loadq[li] = completion
                li += 1
                if li == _MEM_QUEUE:
                    li = 0
                if twrites:
                    ready[rd] = completion
                stats.loads_executed += 1
                okind = outcome.kind
                if okind is not _HIT and okind is not _HIT_PF:  # is_miss
                    stats.misses_total += 1
                    by_pc = stats.miss_count_by_pc
                    by_pc[ipc] = by_pc.get(ipc, 0) + 1
            elif kind == _K_NOP:
                completion = issue
            elif kind == _K_STORE:
                completion = max(issue, ready[ra], ready[rd]) + 1
                hier_store(ea, int(completion))
            else:  # _K_PREFETCH
                access = max(issue, ready[ra])
                hier_prefetch(ea, int(access))
                completion = access
            # _retire
            rob[ri] = completion
            ri += 1
            if ri == rob_len:
                ri = 0
            if completion > cmax:
                cmax = completion
        core._issue_clock = clock
        core._rob_idx = ri
        core._loadq_idx = li
        core._completion_max = cmax
        stats.committed += n
        ctx.pc = next_pc

    return run_block
