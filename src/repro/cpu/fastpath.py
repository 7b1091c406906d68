"""Pre-decoded fast interpreter for the SMT core.

The generic loop in :mod:`repro.cpu.core` re-decodes every instruction on
every dynamic execution: fetch the :class:`Instruction`, walk opcode
tests, chase ``self.X`` attributes, bounce through ``Executor.execute``,
``_issue``, ``_time_*`` and ``_retire``.  For deterministic workloads
that execute the same few hundred static instructions millions of times,
nearly all of that work is loop-invariant.

This module compiles each static instruction of the program **once**
into a zero-argument step handler that performs the entire architectural
+ timing step — functional execute, issue, per-kind timing, retire,
next-PC — with every loop-invariant operand (register indices,
displacement, branch target, hierarchy methods, stat objects) bound as
a closure variable.  The handler's code is rendered from a template per
instruction *shape* (opcode, which registers it has, whether a runtime
is attached: :func:`step_source`), compiled once per process and bound
per instruction, so a step tests no flags at run time.  ``SMTCore``
then executes ``handlers[pc]()`` per step, or, when no runtime or
injector needs per-step hooks, a straight ``for`` over the handlers of
a basic block (:func:`compile_batches` gives each PC's run length).

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

Step templates and trace code are built from the same per-instruction
snippets (execute, issue, per-kind timing, retire), so each of those
exists once here; only the operands' spelling differs.

Correctness contract: every step and every generated trace instruction
replicates the corresponding branch of ``SMTCore._step_original`` /
``_step_trace`` *exactly* — same float arithmetic in the same order,
same stat-update order, same hook call sites — so slow and fast paths
produce byte-identical ``SimulationResult`` payloads.
``tests/test_fastpath_equivalence.py``, ``tests/test_fastpath_property.py``,
``tests/test_trace_codegen.py`` and the golden fixtures under
``tests/data/golden/`` enforce this.

Mutability notes (why each capture is safe):

* ``ctx.regs``, ``core._reg_ready``, ``core._rob``, ``core._loadq`` and
  ``core._bp_table`` are lists assigned once in their owners' ``__init__``
  and only ever mutated in place.
* ``core.stats`` is one ``CoreStats`` for the core's lifetime;
  ``reset_measurement`` reassigns ``miss_count_by_pc``, so generated
  code reads that dict through ``stats`` at call time, never captures it.
* The scalar pipeline state (``core._issue_clock``, ``_fetch_stall_until``,
  ``_rob_idx``, ``_loadq_idx``, ``_completion_max``) is never captured: a
  step reads it from the core on entry and writes it back before any
  call that can read it, as the trace code's ``save`` does.
* Hierarchy/memory *methods* are stable (fault injection mutates fields
  like ``dram_latency_extra``, never rebinds methods), so bound methods
  are captured.  ``runtime.helper`` is captured, its ``busy_until`` read
  per step; ``runtime.on_branch`` is looked up per call.
* ``PREFETCH`` steps and generated trace code read ``inst.disp`` at
  call time: the self-repairing optimizer patches prefetch
  displacements in place (repro.core.repair), and a captured constant
  would silently undo every repair.  All other instruction fields are
  immutable after assembly and are captured when a step is bound.
"""

from __future__ import annotations

import hashlib
import linecache
import math

from ..isa.opcodes import (
    BRANCH_OPCODES,
    CONDITIONAL_BRANCHES,
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

#: Load-queue entries, and execution latencies (cycles) by opcode class;
#: ``SMTCore`` imports the first two.
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


# ---------------------------------------------------------------------------
# Per-instruction snippets.  One instruction's functional execute, issue,
# per-kind timing and retire exist once, as Python source shared by the
# step templates of the original program and the generated code of
# linked traces.  They work on the locals ``clock`` (issue clock),
# ``stall`` (fetch stall), ``ri`` and ``li`` (ROB and load-queue
# cursors) and leave the completion time in ``c``.  Each takes the
# spelling of its operands: literals in a trace, closure variables in a
# step template, so every instruction of one shape shares one source.
#
# An operand spelling ``spell`` maps ``ra``, ``rb`` and ``rd`` (None when the
# instruction has no such register), ``dest`` (the register a result is
# written to, None when ``rd`` is absent or r31), ``disp``, ``imm``,
# ``pc`` (the miss-count and load-tag PC), ``prefetch`` (the instruction
# a ``PREFETCH`` reads ``disp`` from at run time: repairs patch it in
# place), and an ALU op's value function ``fn`` and latency ``lat``.
# ---------------------------------------------------------------------------
_COND_TEST = {
    Opcode.BEQ: "== 0",
    Opcode.BNE: "!= 0",
    Opcode.BLT: "< 0",
    Opcode.BGE: ">= 0",
}


def _execute(op, spell):
    """Functional execute: the register and memory effects.  A JMP has
    none here; its target read is the step's (a trace knows its path)."""
    ra, dest = spell["ra"], spell["dest"]
    if op in LOAD_OPCODES:
        text = f"ea = int(regs[{ra}]) + {spell['disp']}"
        if dest is not None:
            reader = "read_quiet" if op is Opcode.LDQ_NF else "read"
            text += f"\nregs[{dest}] = {reader}(ea)"
        return text
    if op is Opcode.STQ:
        return (f"ea = int(regs[{ra}]) + {spell['disp']}\n"
                f"write(ea, regs[{spell['rd']}])")
    if op is Opcode.PREFETCH:
        return (f"ea = int(regs[{ra}]) + {spell['prefetch']}.disp"
                "  # repairs patch disp")
    if op in CONDITIONAL_BRANCHES:
        return f"tk = regs[{ra}] {_COND_TEST[op]}"
    if op is Opcode.HALT:
        return "ctx.halted = True"
    if op is Opcode.LDA:
        value = f"int(regs[{ra}]) + {spell['disp']}"
    elif op is Opcode.MOVE:
        value = f"regs[{ra}]"
    elif op in ALU_OPS:
        b = f"regs[{spell['rb']}]" if spell["rb"] is not None else spell["imm"]
        value = f"{spell['fn']}(regs[{ra}], {b})"
        if dest is None:
            return value
    elif op in (Opcode.BR, Opcode.JMP, Opcode.NOP):
        return ""
    else:
        raise ValueError(f"unhandled opcode {op}")
    return f"regs[{dest}] = {value}" if dest is not None else ""


def _issue(busy):
    """``SMTCore._issue``: advance ``clock`` past the fetch stall and the
    ROB slot at ``ri``.  ``busy`` spells the helper's busy-until cycle
    (helper interference), or is None when no runtime is attached."""
    cost = (f"busy_cost if {busy} > clock else issue_cost"
            if busy is not None else "issue_cost")
    return (f"clock += {cost}\nif clock < stall:\n    clock = stall\n"
            "t = rob[ri]\nif clock < t:\n    clock = t")


def _timing(op, spell, synthetic=False):
    """Per-kind timing, leaving the completion time in ``c``:
    ``_time_load`` (its outcome in the local ``o``), the store and prefetch
    arms, branch resolve and ``_time_alu``."""
    ra, dest = spell["ra"], spell["dest"]
    if op in LOAD_OPCODES:
        call = ("hier_load_syn(ea, int(a))" if synthetic
                else f"hier_load({spell['pc']}, ea, int(a))")
        return (f"a = clock\nt = ready[{ra}]\nif t > a:\n    a = t\n"
                "t = loadq[li]\nif t > a:\n    a = t\n"
                f"o = {call}\nc = a + o.latency\nloadq[li] = c\nli += 1\n"
                f"if li == {_MEM_QUEUE}:\n    li = 0"
                + (f"\nready[{dest}] = c" if dest is not None else ""))
    if op is Opcode.STQ:
        return (f"c = max(clock, ready[{ra}], ready[{spell['rd']}]) + 1\n"
                "hier_store(ea, int(c))")
    if op is Opcode.PREFETCH:
        return (f"c = clock\nt = ready[{ra}]\nif t > c:\n    c = t\n"
                "hier_prefetch(ea, int(c))")
    if op in CONDITIONAL_BRANCHES or op is Opcode.JMP:
        sources, latency, dest = (ra,), _INT_LATENCY, None
    elif op in ALU_OPS or op is Opcode.LDA or op is Opcode.MOVE:
        sources = (ra, spell["rb"])
        latency = spell["lat"] if op in ALU_OPS else _alu_latency(op)
    else:  # BR, NOP and HALT complete at issue.
        return "c = clock"
    text = "c = clock"
    for src in sources:
        if src is not None:
            text += f"\nt = ready[{src}]\nif t > c:\n    c = t"
    text += f"\nc += {latency}"
    return text + (f"\nready[{dest}] = c" if dest is not None else "")


def _predict(slot, stall):
    """``_predict_branch``: update the 2-bit counter ``bp[slot]`` for
    direction ``tk``; a mispredict stalls fetch (``stall`` spells it)
    until resolve ``c`` plus the penalty."""
    return (f"n = bp[{slot}]\nif tk:\n    if n < 3:\n"
            f"        bp[{slot}] = n + 1\n"
            f"elif n > 0:\n    bp[{slot}] = n - 1\n"
            "if (n >= 2) != tk:\n    stats.branch_mispredicts += 1\n"
            f"    {stall} = c + penalty")


def _retire(cmax):
    """``SMTCore._retire``: free the ROB slot at completion ``c``;
    ``cmax`` spells the completion max."""
    return (f"rob[ri] = c\nri += 1\nif ri == rob_len:\n    ri = 0\n"
            f"if c > {cmax}:\n    {cmax} = c")


def _indent(depth, text):
    pad = "    " * depth
    return "\n".join(pad + line if line else line
                     for line in text.rstrip("\n").split("\n"))


#: The core state every generated ``bind`` captures (lists and the stats
#: object are mutated in place, never reassigned; see the module notes).
_BINDINGS = """\
    ctx = core.ctx
    regs = ctx.regs
    ready = core._reg_ready
    rob = core._rob
    rob_len = len(rob)
    loadq = core._loadq
    bp = core._bp_table
    stats = core.stats
    issue_cost = core._issue_cost
    penalty = core.config.mispredict_penalty
    read = core.memory.read
    read_quiet = core.memory.read_quiet
    write = core.memory.write
    hier_load = core.hierarchy.load
    hier_store = core.hierarchy.store
    hier_prefetch = core.hierarchy.software_prefetch
"""

#: ... and, when a runtime is attached, its helper and the trace entry.
_RUNTIME_BINDINGS = """\
    runtime = core.runtime
    helper = runtime.helper
    busy_cost = issue_cost * core.config.helper_interference
    enter = core._enter_trace
"""

#: Generated ``bind`` functions, keyed by their source: step templates
#: and traces share one code object per distinct source (a sweep
#: re-forms the same traces, and runs the same instruction shapes, in
#: every cell of a workload).  A trace entry holds about 100 KB with its
#: ``linecache`` lines, so the cache starts over past ``_BINDERS_MAX``
#: entries; bound functions keep their code.
_BINDERS: dict = {}
_BINDERS_MAX = 256

#: Globals of the generated code: the L1-hit kinds, the ALU tables a
#: step binds from, and the ALU value functions, one name per opcode
#: (``op_addq``) for traces.
_GLOBALS = {
    "HIT": _HIT,
    "HIT_PF": _HIT_PF,
    "ALU_OPS": ALU_OPS,
    "alu_latency": _alu_latency,
    **{f"op_{op.value}": fn for op, fn in ALU_OPS.items()},
}


def _binder(source, kind):
    """The ``bind`` function of ``source``, compiled once per process."""
    bind = _BINDERS.get(source)
    if bind is None:
        if len(_BINDERS) >= _BINDERS_MAX:
            for old in _BINDERS.values():
                linecache.cache.pop(old.__code__.co_filename, None)
            _BINDERS.clear()
        bind = _BINDERS[source] = _load_binder(source, kind)
    return bind


def _load_binder(source, kind):
    """Compile ``source`` and return its ``bind``; the source is
    registered with :mod:`linecache` as ``<kind digest>``, so tracebacks
    and profilers show the generated lines."""
    digest = hashlib.blake2b(source.encode(), digest_size=6).hexdigest()
    filename = f"<{kind} {digest}>"
    linecache.cache[filename] = (
        len(source), None, source.splitlines(True), filename
    )
    namespace = dict(_GLOBALS)
    exec(compile(source, filename, "exec"), namespace)
    return namespace["bind"]


# ---------------------------------------------------------------------------
# Original-program steps.  Each instruction's handler is a zero-argument
# ``step`` rendered for its shape (``step_source``) and bound to the
# instruction's operands and one core.  The body is the snippets above
# plus a step-only tail: the scalar pipeline state is read from the core
# and written back around them, then ``ctx.pc``, ``on_branch``, JMP's
# fetch stall, HALT and the trace-entry probe.
# ---------------------------------------------------------------------------
#: The spelling of a step template's operands: closure variables.  The
#: ALU ops differ only in ``fn`` and ``lat``, so they share templates.
_STEP_OPERANDS = {"rd": "rd", "disp": "disp", "imm": "imm", "pc": "pc",
                  "prefetch": "inst", "fn": "fn", "lat": "lat"}

#: A step's operands, bound per instruction ...
_OPERAND_BINDINGS = """\
    ra = inst.ra
    rb = inst.rb
    rd = inst.rd
    disp = inst.disp
    imm = inst.imm
    target = inst.target
    nxt = pc + 1
    slot = pc & 4095
"""

#: ... and an ALU op's value function and latency.
_ALU_BINDINGS = """\
    fn = ALU_OPS[inst.opcode]
    lat = alu_latency(inst.opcode)
"""

#: A step's demand-load counters (``SMTCore._step_original``).
_STEP_LOAD_STATS = """\
stats.loads_executed += 1
k = o.kind
if k is not HIT and k is not HIT_PF:
    stats.misses_total += 1
    by_pc = stats.miss_count_by_pc
    by_pc[pc] = by_pc.get(pc, 0) + 1"""

#: Step template sources by shape, so an instruction costs a lookup.
_STEP_SOURCES: dict = {}


def step_shape(inst, runtime):
    """The shape ``step_source`` renders ``inst``'s template from:
    opcode, which registers it has, and whether a runtime is attached."""
    rd = inst.rd
    return (inst.opcode, inst.ra is not None, inst.rb is not None,
            rd is not None and rd != 31, runtime)


def step_source(op, has_ra, has_rb, writes, runtime):
    """Python source of the ``bind(core, patch_get, pc, inst)`` function
    that returns one original-program instruction's step handler.

    The handler replicates ``SMTCore._step_original``; without a runtime
    it has no helper-interference test, ``on_branch`` call or trace-entry
    probe.
    """
    spell = dict(_STEP_OPERANDS, ra="ra" if has_ra else None,
                 rb="rb" if has_rb else None, dest="rd" if writes else None)
    branch = op in CONDITIONAL_BRANCHES
    if op is Opcode.BR:
        to = "target"
    else:
        to = "to" if branch or op is Opcode.JMP else "nxt"
    body = ["to = int(regs[ra])" if op is Opcode.JMP else _execute(op, spell),
            "clock = core._issue_clock\nstall = core._fetch_stall_until\n"
            "ri = core._rob_idx",
            _issue("helper.busy_until" if runtime else None),
            "core._issue_clock = clock\nstats.committed += 1"]
    if op in LOAD_OPCODES:
        body += ["li = core._loadq_idx", _timing(op, spell),
                 "core._loadq_idx = li", _STEP_LOAD_STATS]
    elif branch:
        body += ["stats.conditional_branches += 1", _timing(op, spell),
                 _predict("slot", "core._fetch_stall_until"),
                 "to = target if tk else nxt"]
        if runtime:
            body.append("runtime.on_branch(pc, tk, target, clock)")
    else:
        body.append(_timing(op, spell))
        if op is Opcode.JMP:
            body.append("core._fetch_stall_until = c + penalty")
    body += [_retire("core._completion_max"), f"core._rob_idx = ri\n"
             f"ctx.pc = {to}"]
    if runtime and op is not Opcode.HALT:
        # A halted step never enters a trace (_step_original's guard).
        body.append(f"t = patch_get({to})\nif t is not None:\n"
                    f"    enter(t, {to})")
    alu = op in ALU_OPS
    return (
        f"def bind(core, patch_get, pc, inst):  # {'alu' if alu else op.value}"
        f"\n{_BINDINGS}{_RUNTIME_BINDINGS if runtime else ''}"
        f"{_OPERAND_BINDINGS}{_ALU_BINDINGS if alu else ''}\n    def step():\n"
        + "\n".join(_indent(2, text) for text in body if text)
        + "\n\n    return step\n"
    )


def compile_program(core):
    """Return ``handlers`` for ``core.program``: ``handlers[pc]`` is the
    step of the instruction at ``pc``, its shape's template bound to the
    instruction and this core."""
    instructions = core.program.instructions
    runtime = core.runtime is not None
    patch_get = _patch_lookup(core.runtime)
    handlers = []
    for pc, inst in enumerate(instructions):
        shape = step_shape(inst, runtime)
        source = _STEP_SOURCES.get(shape)
        if source is None:
            source = _STEP_SOURCES[shape] = step_source(*shape)
        handlers.append(_binder(source, "step")(core, patch_get, pc, inst))
    return handlers


def compile_batches(core):
    """Return ``run_len``: ``run_len[pc]`` is the number of instructions
    from ``pc`` to the end of its basic block (at least 1; a branch, JMP
    or HALT is a block of its own).

    A block ends after its last straight-line instruction and before a
    branch target, so blocks never overlap: from PC 0, ``pc +=
    run_len[pc]`` visits exactly the block leaders.  Without per-step
    hooks ``SMTCore._run_fast`` steps ``handlers[pc:pc + run_len[pc]]``
    in one loop, clamped to the budget and the next watchdog check.
    (The traced perfbench run counts calls of ``repro.cpu.core.
    compile_batches`` by this name, so it stays until the simulator
    reports its own layer costs.)
    """
    instructions = core.program.instructions
    targets = {inst.target for inst in instructions}
    lens = [1] * len(instructions)
    run = 0
    for pc in range(len(instructions) - 1, -1, -1):
        op = instructions[pc].opcode
        if op in BRANCH_OPCODES or op is Opcode.HALT:
            run = 0
        else:
            run += 1
            lens[pc] = run
        if pc in targets:
            run = 0
    return lens


# ---------------------------------------------------------------------------
# Linked traces.  A trace body is straight-line code, so it runs as ONE
# generated function per trace: ``trace_source`` renders the body from
# the snippets above with every captured operand a literal,
# ``compile_trace`` compiles each distinct source once per process and
# binds the code to one core.  The function replicates
# ``SMTCore._step_trace`` followed by the post-step sequence of
# ``SMTCore._run_fast`` for every instruction, keeping the scalar
# pipeline state and the trace's stat counters in locals between hook
# calls.  Traces only execute under a runtime, so the
# issue-interference check is unconditional here.
# ---------------------------------------------------------------------------

#: Per-core bindings (run once per trace per core), the helpers the
#: generated code calls on its rare paths, and the run function's entry.
#: ``{state}`` is the run function's locals that ``save`` writes back;
#: ``save`` also records the trace index unless it is None (the trace
#: has finished).
_BIND_HEAD = (
    "def bind(core, trace, live, consts, patch_get):\n"
    + _BINDINGS
    + _RUNTIME_BINDINGS
    + """\
    queued = runtime.events._queue
    tick = runtime.tick
    on_trace_load = runtime.on_trace_load
    hier_load_syn = core.hierarchy.load_synthetic
    finish = core._finish_trace
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
)

#: Optional counters: (local name, ``CoreStats`` field).
_COUNTERS = (
    ("synthetic", "synthetic_executed"),
    ("loads", "loads_executed"),
    ("branches", "conditional_branches"),
)

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
        trace.body, trace.fallthrough_pc, injector=core.injector is not None
    )
    bind = _binder(source, "trace")
    return bind(core, trace, live, consts, _patch_lookup(core.runtime))


def trace_source(body, fallthrough_pc, injector):
    """Python source of the ``bind`` function for a trace body.

    Returns ``(source, live, consts)``: the ``PREFETCH`` instructions the
    code reads ``disp`` from at run time (repairs patch it in place) and
    the operands that have no exact literal, both passed to ``bind``.
    ``injector`` says whether the core has a fault injector.
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
        if text:
            out.append(_indent(depth, text))

    def hooks(idx, budget):
        """The post-step sequence of ``_run_fast``, then its budget test
        when ``budget``; ``idx`` is the trace index to record before a
        hook that reads core state."""
        emit(4, _TICK)
        if injector:
            emit(4, f"job, busy, stalled = injected({idx}, {state})")
        pause = f"until = paused({idx}, until, {state})"
        if budget:
            emit(4, "until -= 1\n"
                    "if until <= 0 or committed >= budget:\n"
                    f"    {pause}\n"
                    "    if committed >= budget:\n        return until")
        else:
            emit(4, f"until -= 1\nif until <= 0:\n    {pause}")

    for idx, tinst in enumerate(body):
        inst = tinst.inst
        op = ops[idx]
        orig_pc = tinst.orig_pc
        syn = tinst.synthetic
        ra, rb, rd = inst.ra, inst.rb, inst.rd
        spell = {
            "ra": None if ra is None else repr(ra),
            "rb": None if rb is None else repr(rb),
            "rd": repr(rd),
            "dest": repr(rd) if rd is not None and rd != 31 else None,
            "disp": lit(inst.disp),
            "imm": lit(inst.imm),
            "pc": repr(orig_pc),
            "fn": f"op_{op.value}",
            "lat": repr(_alu_latency(op)),
        }
        if op is Opcode.PREFETCH:
            live.append(inst)
            spell["prefetch"] = f"live[{len(live) - 1}]"
        branch = op in CONDITIONAL_BRANCHES or op is Opcode.JMP
        emit(3, f"if start <= {idx}:")
        emit(4, f"# {idx}: {op.value} @ pc {orig_pc}"
                + (" (synthetic)" if syn else ""))
        # _step_trace routes JMP through the conditional-branch arm
        # (always taken).
        emit(4, "tk = True" if op is Opcode.JMP else _execute(op, spell))
        emit(4, _issue("busy"))
        emit(4, "synthetic += 1" if syn else "committed += 1")
        if branch:
            emit(4, "branches += 1")
        emit(4, _timing(op, spell, syn))
        if op in LOAD_OPCODES and not syn:
            emit(4, "loads += 1\nk = o.kind\n"
                    "if k is not HIT and k is not HIT_PF:\n"
                    f"    missed({orig_pc})\n"
                    f"on_trace_load({orig_pc}, trace, ea, o, a)")
        exit_test = None
        if branch:
            emit(4, _predict(orig_pc & 4095, "stall"))
            expected = tinst.expected_taken
            fall = orig_pc + 1
            if expected is True:
                exit_test, exit_pc = "not tk", fall
            elif expected is False:
                exit_test, exit_pc = "tk", inst.target
            else:
                exit_test = f"tk != {expected!r}"
                exit_pc = f"{inst.target} if tk else {fall}"
        emit(4, _retire("cmax"))

        if op is Opcode.HALT:
            # Drop the trace without finishing it (no obs emit, no
            # on_trace_execution), as _step_trace's halted tail does.
            emit(4, f"core._trace = None\nsave({idx}, {state})\n"
                    f"return after(until, {state})")
            continue
        if exit_test is not None:
            emit(4, f"if {exit_test}:\n"
                    f"    return left({exit_pc}, False, until, {state})")
        if idx == len(body) - 1:
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
