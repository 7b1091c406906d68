"""Pre-decoded fast interpreter for the SMT core.

The generic loop in :mod:`repro.cpu.core` re-decodes every instruction on
every dynamic execution: fetch the :class:`Instruction`, walk opcode
tests, chase ``self.X`` attributes, bounce through ``Executor.execute``,
``_issue``, ``_time_*`` and ``_retire``.  For deterministic workloads
that execute the same few hundred static instructions millions of times,
nearly all of that work is loop-invariant.

This module compiles each static instruction **once** into a closure
that performs the entire architectural + timing step — functional
execute, issue, per-kind timing, retire, next-PC — with every
loop-invariant operand (register indices, displacement, branch target,
latency, hierarchy methods, stat objects) pre-bound.  ``SMTCore`` then
executes ``handlers[pc]()`` per step, or a straight ``for`` over a
basic block of pure-register handlers when no runtime/injector needs
per-step hooks.

Correctness contract: every closure replicates the corresponding branch
of ``SMTCore._step_original`` / ``_step_trace`` *exactly* — same float
arithmetic in the same order, same stat-update order, same hook call
sites — so slow and fast paths produce byte-identical
``SimulationResult`` payloads.  ``tests/test_fastpath_equivalence.py``
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
* ``PREFETCH`` handlers read ``inst.disp`` at call time: the
  self-repairing optimizer patches prefetch displacements in place
  (repro.core.repair), and a captured constant would silently undo
  every repair.  All other instruction fields are immutable after
  assembly and are captured.
"""

from __future__ import annotations

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
# Trace handlers.  One closure per body index; each advances
# ``core._trace_idx`` itself (or finishes/exits the trace), replicating
# ``SMTCore._step_trace``.  Traces only execute under a runtime, so the
# issue-interference check is unconditional here.
# ---------------------------------------------------------------------------
def compile_trace(core, trace):
    """Return the per-index step closures for ``trace.body``."""
    body = trace.body
    last = len(body) - 1
    return [_compile_trace_step(core, trace, idx, idx == last)
            for idx, tinst in enumerate(body)]


def _compile_trace_step(core, trace, idx, is_last):
    tinst = trace.body[idx]
    op = tinst.inst.opcode
    if op in LOAD_OPCODES:
        return _trace_load(core, trace, idx, is_last)
    if op is Opcode.STQ:
        return _trace_store(core, trace, idx, is_last)
    if op is Opcode.PREFETCH:
        return _trace_prefetch(core, trace, idx, is_last)
    if op in CONDITIONAL_BRANCHES or op is Opcode.JMP:
        # _step_trace routes JMP through the conditional-branch arm
        # (taken is always True), so a hand-built trace containing one
        # predicts/exits exactly like the generic loop.
        return _trace_cond_branch(core, trace, idx, is_last)
    if op is Opcode.HALT:
        return _trace_halt(core, trace, idx)
    # BR, NOP, LDA, MOVE and ALU ops all share the plain-advance tail.
    return _trace_plain(core, trace, idx, is_last)


def _trace_prologue(core, trace, idx):
    """Shared decode-time captures for the trace factories."""
    tinst = trace.body[idx]
    return tinst, tinst.inst, tinst.orig_pc, tinst.synthetic


def _trace_load(core, trace, idx, is_last):
    ctx = core.ctx
    regs = ctx.regs
    ready = core._reg_ready
    rob = core._rob
    rob_len = len(rob)
    loadq = core._loadq
    stats = core.stats
    runtime = core.runtime
    helper = runtime.helper
    patch_get = _patch_lookup(runtime)
    issue_cost = core._issue_cost
    interference = core.config.helper_interference
    tinst, inst, orig_pc, synthetic = _trace_prologue(core, trace, idx)
    read = (core.memory.read_quiet if inst.opcode is Opcode.LDQ_NF
            else core.memory.read)
    hier_load = core.hierarchy.load
    hier_load_syn = core.hierarchy.load_synthetic
    ra, rd, disp = inst.ra, inst.rd, inst.disp
    freads = rd != 31
    twrites = rd is not None and rd != 31
    next_idx = idx + 1
    enter_trace = core._enter_trace

    def step():
        ea = int(regs[ra]) + disp
        if freads:
            regs[rd] = read(ea)
        clock = core._issue_clock
        cost = issue_cost
        if helper.busy_until > clock:
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
        if synthetic:
            stats.synthetic_executed += 1
        else:
            stats.committed += 1
            stats.trace_committed += 1
        # _time_load (tagged with the original PC)
        access = issue
        addr_ready = ready[ra]
        if addr_ready > access:
            access = addr_ready
        li = core._loadq_idx
        lq_limit = loadq[li]
        if lq_limit > access:
            access = lq_limit
        if synthetic:
            outcome = hier_load_syn(ea, int(access))
        else:
            outcome = hier_load(orig_pc, ea, int(access))
        completion = access + outcome.latency
        loadq[li] = completion
        li += 1
        if li == _MEM_QUEUE:
            li = 0
        core._loadq_idx = li
        if twrites:
            ready[rd] = completion
        if not synthetic:
            stats.loads_executed += 1
            kind = outcome.kind
            if kind is not _HIT and kind is not _HIT_PF:  # is_miss
                stats.misses_total += 1
                stats.misses_in_traces += 1
                by_pc = stats.miss_count_by_pc
                by_pc[orig_pc] = by_pc.get(orig_pc, 0) + 1
            runtime.on_trace_load(orig_pc, trace, ea, outcome, access)
        rob[ri] = completion
        ri += 1
        if ri == rob_len:
            ri = 0
        core._rob_idx = ri
        if completion > core._completion_max:
            core._completion_max = completion
        if is_last:
            core._finish_trace(trace, completed=True)
            next_pc = trace.fallthrough_pc
            ctx.pc = next_pc
            t = patch_get(next_pc)
            if t is not None:
                enter_trace(t, next_pc)
        else:
            core._trace_idx = next_idx

    return step


def _trace_store(core, trace, idx, is_last):
    ctx = core.ctx
    regs = ctx.regs
    ready = core._reg_ready
    rob = core._rob
    rob_len = len(rob)
    stats = core.stats
    runtime = core.runtime
    helper = runtime.helper
    patch_get = _patch_lookup(runtime)
    issue_cost = core._issue_cost
    interference = core.config.helper_interference
    tinst, inst, orig_pc, synthetic = _trace_prologue(core, trace, idx)
    write = core.memory.write
    hier_store = core.hierarchy.store
    ra, rd, disp = inst.ra, inst.rd, inst.disp
    next_idx = idx + 1
    enter_trace = core._enter_trace

    def step():
        ea = int(regs[ra]) + disp
        write(ea, regs[rd])
        clock = core._issue_clock
        cost = issue_cost
        if helper.busy_until > clock:
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
        if synthetic:
            stats.synthetic_executed += 1
        else:
            stats.committed += 1
            stats.trace_committed += 1
        completion = max(issue, ready[ra], ready[rd]) + 1
        hier_store(ea, int(completion))
        rob[ri] = completion
        ri += 1
        if ri == rob_len:
            ri = 0
        core._rob_idx = ri
        if completion > core._completion_max:
            core._completion_max = completion
        if is_last:
            core._finish_trace(trace, completed=True)
            next_pc = trace.fallthrough_pc
            ctx.pc = next_pc
            t = patch_get(next_pc)
            if t is not None:
                enter_trace(t, next_pc)
        else:
            core._trace_idx = next_idx

    return step


def _trace_prefetch(core, trace, idx, is_last):
    ctx = core.ctx
    regs = ctx.regs
    ready = core._reg_ready
    rob = core._rob
    rob_len = len(rob)
    stats = core.stats
    runtime = core.runtime
    helper = runtime.helper
    patch_get = _patch_lookup(runtime)
    issue_cost = core._issue_cost
    interference = core.config.helper_interference
    tinst, inst, orig_pc, synthetic = _trace_prologue(core, trace, idx)
    hier_prefetch = core.hierarchy.software_prefetch
    ra = inst.ra
    next_idx = idx + 1
    enter_trace = core._enter_trace

    def step():
        ea = int(regs[ra]) + inst.disp  # disp read live: repairs patch it
        clock = core._issue_clock
        cost = issue_cost
        if helper.busy_until > clock:
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
        if synthetic:
            stats.synthetic_executed += 1
        else:
            stats.committed += 1
            stats.trace_committed += 1
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
        if is_last:
            core._finish_trace(trace, completed=True)
            next_pc = trace.fallthrough_pc
            ctx.pc = next_pc
            t = patch_get(next_pc)
            if t is not None:
                enter_trace(t, next_pc)
        else:
            core._trace_idx = next_idx

    return step


def _trace_cond_branch(core, trace, idx, is_last):
    ctx = core.ctx
    regs = ctx.regs
    ready = core._reg_ready
    rob = core._rob
    rob_len = len(rob)
    bp = core._bp_table
    stats = core.stats
    runtime = core.runtime
    helper = runtime.helper
    patch_get = _patch_lookup(runtime)
    issue_cost = core._issue_cost
    interference = core.config.helper_interference
    penalty = core.config.mispredict_penalty
    tinst, inst, orig_pc, synthetic = _trace_prologue(core, trace, idx)
    cond = _COND.get(inst.opcode) or (lambda v: True)  # JMP: always taken
    ra, target = inst.ra, inst.target
    expected = tinst.expected_taken
    slot = orig_pc & 4095
    exit_fall_pc = orig_pc + 1
    next_idx = idx + 1
    enter_trace = core._enter_trace

    def step():
        taken = cond(regs[ra])
        clock = core._issue_clock
        cost = issue_cost
        if helper.busy_until > clock:
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
        if synthetic:
            stats.synthetic_executed += 1
        else:
            stats.committed += 1
            stats.trace_committed += 1
        stats.conditional_branches += 1
        resolve = max(issue, ready[ra]) + _INT_LATENCY
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
        rob[ri] = completion
        ri += 1
        if ri == rob_len:
            ri = 0
        core._rob_idx = ri
        if completion > core._completion_max:
            core._completion_max = completion
        if taken != expected:
            stats.trace_exits_early += 1
            core._finish_trace(trace, completed=False)
            exit_pc = target if taken else exit_fall_pc
            ctx.pc = exit_pc
            t = patch_get(exit_pc)
            if t is not None:
                enter_trace(t, exit_pc)
        elif is_last:
            core._finish_trace(trace, completed=True)
            next_pc = trace.fallthrough_pc
            ctx.pc = next_pc
            t = patch_get(next_pc)
            if t is not None:
                enter_trace(t, next_pc)
        else:
            core._trace_idx = next_idx

    return step


def _trace_halt(core, trace, idx):
    ctx = core.ctx
    rob = core._rob
    rob_len = len(rob)
    stats = core.stats
    runtime = core.runtime
    helper = runtime.helper
    patch_get = _patch_lookup(runtime)
    issue_cost = core._issue_cost
    interference = core.config.helper_interference
    tinst, inst, orig_pc, synthetic = _trace_prologue(core, trace, idx)

    def step():
        ctx.halted = True
        clock = core._issue_clock
        cost = issue_cost
        if helper.busy_until > clock:
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
        if synthetic:
            stats.synthetic_executed += 1
        else:
            stats.committed += 1
            stats.trace_committed += 1
        completion = issue
        rob[ri] = completion
        ri += 1
        if ri == rob_len:
            ri = 0
        core._rob_idx = ri
        if completion > core._completion_max:
            core._completion_max = completion
        # Matches _step_trace's halted tail: drop the trace without
        # finishing it (no obs emit, no on_trace_execution).
        core._trace = None

    return step


def _trace_plain(core, trace, idx, is_last):
    """BR, NOP, LDA, MOVE and ALU ops inside a trace."""
    ctx = core.ctx
    regs = ctx.regs
    ready = core._reg_ready
    rob = core._rob
    rob_len = len(rob)
    stats = core.stats
    runtime = core.runtime
    helper = runtime.helper
    patch_get = _patch_lookup(runtime)
    issue_cost = core._issue_cost
    interference = core.config.helper_interference
    tinst, inst, orig_pc, synthetic = _trace_prologue(core, trace, idx)
    op = inst.opcode
    ra, rb, rd = inst.ra, inst.rb, inst.rd
    imm, disp = inst.imm, inst.disp
    op_fn = ALU_OPS.get(op)
    latency = _alu_latency(op)
    is_lda = op is Opcode.LDA
    is_move = op is Opcode.MOVE
    # BR and NOP complete at issue; everything else goes through ALU
    # timing (matching _step_trace's elif ordering).
    issue_completes = op is Opcode.BR or op is Opcode.NOP
    fwrites = rd != 31
    twrites = rd is not None and rd != 31
    has_ra = ra is not None
    has_rb = rb is not None
    next_idx = idx + 1
    enter_trace = core._enter_trace

    def step():
        if is_lda:
            if fwrites:
                regs[rd] = int(regs[ra]) + disp
        elif is_move:
            if fwrites:
                regs[rd] = regs[ra]
        elif op_fn is not None:
            a = regs[ra]
            b = regs[rb] if has_rb else imm
            value = op_fn(a, b)
            if fwrites:
                regs[rd] = value
        clock = core._issue_clock
        cost = issue_cost
        if helper.busy_until > clock:
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
        if synthetic:
            stats.synthetic_executed += 1
        else:
            stats.committed += 1
            stats.trace_committed += 1
        if issue_completes:
            completion = issue
        else:
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
        if is_last:
            core._finish_trace(trace, completed=True)
            next_pc = trace.fallthrough_pc
            ctx.pc = next_pc
            t = patch_get(next_pc)
            if t is not None:
                enter_trace(t, next_pc)
        else:
            core._trace_idx = next_idx

    return step


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
