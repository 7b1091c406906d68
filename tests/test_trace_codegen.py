"""Differential test: generated trace code against the reference stepper.

``fastpath.compile_trace`` renders each linked trace as one Python
function that keeps the issue clock, fetch stall, ROB and load-queue
cursors, completion max and the trace's stat counters in locals between
hook calls.  Hypothesis draws random trace bodies over every kind of
trace instruction (ALU, LDA, MOVE, NOP, BR, JMP, HALT, LDQ/LDQ_NF,
synthetic loads and prefetches, STQ, PREFETCH, conditional branches
expecting either direction), links one into a small looping program and
runs it on a fast core and on a ``fast=False`` core, in lock-stepped
``drain=False`` chunks of 1 to ``len(body) + 1`` instructions so chunk
ends land on every body index.  Draws add a fault injector (helper
stalls and failures, DRAM latency, cache flushes) and give the watchdog
a short check interval (the rest keep the default one).  After every chunk the two cores must agree on
registers, memory words, stats, clocks, the ROB and load queue, the
trace cursor, the branch predictor, ``MemoryStats`` and every runtime
hook call.  The stand-in runtime turns trace loads into helper jobs
whose completion patches every prefetch displacement, so live repairs
and helper interference happen mid-trace.

On a divergence Hypothesis shrinks the body and prints it.  The example
budget scales with ``REPRO_FUZZ_EXAMPLES`` like the other oracles (CI
runs 200; the local default keeps the suite fast).
"""

from __future__ import annotations

import dataclasses
import os

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.config import MachineConfig, TridentConfig
from repro.cpu import fastpath
from repro.cpu.core import SMTCore
from repro.errors import SimulationStallError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultEvent, FaultPlan
from repro.faults.watchdog import Watchdog
from repro.isa.assembler import Assembler
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.mainmem import DataMemory
from repro.trident.code_cache import CodeCache
from repro.trident.events import EventQueue
from repro.trident.helper_thread import HelperThread
from repro.trident.trace import HotTrace, TraceInstruction
from repro.trident.trace_formation import form_trace

MAX_EXAMPLES = int(os.environ.get("REPRO_FUZZ_EXAMPLES", "25"))

INT = (1, 2, 3, 4)
FP = (5, 6, 7)
ADDR = 9          # holds BASE; never written, so every access is mapped
BASE = 0x40000
HEAD = 2          # the trace head: the program loops back here forever
#: Original PCs a trace instruction may claim, and where exits may go
#: (all inside the loop, so execution always comes back to HEAD).
ORIG_PCS = st.integers(HEAD, 5)
TARGETS = st.integers(HEAD, 6)

_int_dest = st.sampled_from(INT + (31,))
_int = st.sampled_from(INT + (31,))
_fp = st.sampled_from(FP)
_disp = st.integers(0, 600).map(lambda n: n * 8)
_fp_imm = st.sampled_from((0.5, 1.25, -2.0, 3.0))

_INT_ALU = [Opcode.ADDQ, Opcode.SUBQ, Opcode.MULQ, Opcode.AND, Opcode.OR,
            Opcode.XOR, Opcode.SLL, Opcode.SRL, Opcode.CMPEQ, Opcode.CMPLT,
            Opcode.CMPLE]
_FP_ALU = [Opcode.ADDF, Opcode.SUBF, Opcode.MULF, Opcode.DIVF]
_COND = [Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BGE]


def _inst(op, orig_pc, synthetic=False, expected=None, **fields):
    return (op.value, orig_pc, synthetic, expected, tuple(sorted(fields.items())))


_body_inst = st.one_of(
    st.builds(lambda op, rd, ra, rb, imm, pc: _inst(
        op, pc, rd=rd, ra=ra, rb=rb, imm=None if rb is not None else imm),
        st.sampled_from(_INT_ALU), _int_dest, _int,
        st.one_of(st.none(), _int), st.integers(0, 70), ORIG_PCS),
    st.builds(lambda op, rd, ra, rb, imm, pc: _inst(
        op, pc, rd=rd, ra=ra, rb=rb, imm=None if rb is not None else imm),
        st.sampled_from(_FP_ALU), _fp, _fp, st.one_of(st.none(), _fp),
        _fp_imm, ORIG_PCS),
    st.builds(lambda rd, ra, disp, pc: _inst(
        Opcode.LDA, pc, rd=rd, ra=ra, disp=disp), _int_dest, _int,
        st.integers(-64, 64), ORIG_PCS),
    st.builds(lambda pair, pc: _inst(Opcode.MOVE, pc, rd=pair[0], ra=pair[1]),
              st.one_of(st.tuples(_int_dest, _int), st.tuples(_fp, _fp)),
              ORIG_PCS),
    st.builds(lambda pc: _inst(Opcode.NOP, pc), ORIG_PCS),
    st.builds(lambda target, pc: _inst(Opcode.BR, pc, target=target),
              TARGETS, ORIG_PCS),
    st.builds(lambda ra, target, expected, pc: _inst(
        Opcode.JMP, pc, expected=expected, ra=ra, target=target),
        st.sampled_from(INT), TARGETS, st.booleans(), ORIG_PCS),
    st.builds(lambda op, rd, disp, syn, pc: _inst(
        op, pc, synthetic=syn, rd=rd, ra=ADDR, disp=disp),
        st.sampled_from([Opcode.LDQ, Opcode.LDQ_NF]), _int_dest, _disp,
        st.booleans(), ORIG_PCS),
    st.builds(lambda rd, disp, pc: _inst(
        Opcode.STQ, pc, rd=rd, ra=ADDR, disp=disp), _int, _disp, ORIG_PCS),
    st.builds(lambda disp, syn, pc: _inst(
        Opcode.PREFETCH, pc, synthetic=syn, ra=ADDR, disp=disp),
        _disp, st.booleans(), ORIG_PCS),
    st.builds(lambda op, ra, target, expected, pc: _inst(
        op, pc, expected=expected, ra=ra, target=target),
        st.sampled_from(_COND), st.one_of(_int, _fp), TARGETS,
        st.booleans(), ORIG_PCS),
)


@st.composite
def bodies(draw):
    body = draw(st.lists(_body_inst, min_size=1, max_size=14))
    if draw(st.sampled_from((False,) * 5 + (True,))):
        at = draw(st.integers(0, len(body)))
        body.insert(at, _inst(Opcode.HALT, draw(ORIG_PCS)))
    if all(synthetic for _op, _pc, synthetic, _e, _f in body):
        # A body that never commits loops without progress; give it one
        # program instruction.
        body.append(_inst(Opcode.NOP, HEAD))
    return tuple(body)


@st.composite
def fault_plans(draw):
    events = []
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(
            ("helper_stall", "helper_fail", "dram_latency", "cache_flush")))
        trigger = {"at_cycle": draw(st.integers(0, 3_000))}
        if draw(st.booleans()):
            trigger = {"at_instruction": draw(st.integers(0, 600))}
        duration = draw(st.integers(1, 400)) if kind == "helper_stall" else 0
        magnitude = {"dram_latency": 120.0, "cache_flush": 2.0}.get(kind, 1.0)
        events.append(FaultEvent(kind=kind, duration_cycles=duration,
                                 magnitude=magnitude, **trigger))
    return FaultPlan(events=tuple(events), seed=1)


@st.composite
def cases(draw):
    body = draw(bodies())
    fallthrough = draw(TARGETS)
    # Chunk sizes from 1 to len(body) + 1 put chunk ends on every index;
    # a long last chunk lets helper jobs and faults land mid-trace.
    chunks = draw(st.lists(st.integers(1, len(body) + 1),
                           min_size=1, max_size=40))
    chunks.append(draw(st.integers(200, 600)))
    plan = draw(st.one_of(st.none(), fault_plans()))
    # None keeps the watchdog's default check interval.
    interval = draw(st.one_of(st.none(), st.integers(1, 12)))
    # Without helper interference the clock steps by exact issue slots,
    # so it can land on a job's ready cycle exactly.
    interference = draw(st.sampled_from((1.05, 1.0)))
    return body, fallthrough, tuple(chunks), plan, interval, interference


class _Runtime:
    """A Trident stand-in serving one linked trace.

    Every second trace load and every third trace execution queues an
    event; ``tick`` follows
    ``TridentRuntime.tick`` and dispatches it as a helper job whose
    completion bumps every prefetch displacement in the trace (a live
    repair).  Every hook call is logged.
    """

    overhead_only = False

    def __init__(self, trace, repairs=True):
        self.trace = trace
        self.repairs = repairs
        self.helper = HelperThread(startup_cycles=40)
        self.events = EventQueue()
        self.code_cache = CodeCache()
        self.code_cache.link(trace)
        self.log = []
        self._loads = 0
        self._executions = 0

    @property
    def helper_busy_until(self):
        return self.helper.busy_until

    def trace_at(self, pc):
        return self.code_cache.lookup(pc)

    def on_branch(self, pc, taken, target, cycle):
        self.log.append(("branch", pc, taken, cycle))

    def on_trace_load(self, pc, trace, ea, outcome, cycle):
        self.log.append(("load", pc, ea, outcome.kind.value,
                         outcome.latency, cycle))
        self._loads += 1
        if self._loads % 2 == 0:
            self.events.push(("repair", pc))

    def on_trace_execution(self, trace, duration, completed, cycle):
        self.log.append(("exec", trace.trace_id, duration, completed, cycle))
        self._executions += 1
        if self._executions % 3 == 0:
            self.events.push(("repair", trace.head_pc))

    def tick(self, cycle):
        helper = self.helper
        if helper._job is None:
            if len(self.events) and cycle >= helper.stalled_until:
                self._dispatch(cycle)
            return
        if helper.tick(cycle):
            self.log.append(("applied", cycle))
        if helper.available(cycle) and len(self.events):
            self._dispatch(cycle)

    def _dispatch(self, cycle):
        self.events.pop()
        self.log.append(("dispatch", cycle))
        self.helper.schedule(cycle, 400, self._repair, "repair")

    def _repair(self):
        if not self.repairs:
            return
        for tinst in self.trace.body:
            if tinst.inst.opcode is Opcode.PREFETCH:
                tinst.inst.disp += 64

    def fail_helper_job(self):
        return self.helper.fail_current_job()


def _program():
    asm = Assembler("codegen-oracle")
    asm.li("r9", BASE)                  # 0
    asm.li("r1", 0)                     # 1
    asm.label("head")
    asm.addq("r1", "r1", imm=1)         # 2: the trace head
    asm.nop()                           # 3
    asm.nop()                           # 4
    asm.nop()                           # 5
    asm.br("head")                      # 6
    asm.halt()                          # 7
    program = asm.build()
    assert program.instructions[HEAD].opcode is Opcode.ADDQ
    return program


def _trace(body, fallthrough):
    tinsts = [
        TraceInstruction(
            inst=Instruction(opcode=Opcode(op), **dict(fields)),
            orig_pc=pc,
            expected_taken=expected,
            synthetic=synthetic,
        )
        for op, pc, synthetic, expected, fields in body
    ]
    return HotTrace(trace_id=1, head_pc=HEAD, body=tinsts,
                    fallthrough_pc=fallthrough)


def _core(case, fast):
    body, fallthrough, _chunks, plan, interval, interference = case
    config = MachineConfig(helper_interference=interference)
    trace = _trace(body, fallthrough)
    runtime = _Runtime(trace)
    hierarchy = MemoryHierarchy(config)
    injector = None
    if plan is not None:
        injector = FaultInjector(plan, hierarchy=hierarchy, runtime=runtime)
    watchdog = Watchdog()
    if interval is not None:
        watchdog.check_interval = interval
    core = SMTCore(_program(), DataMemory(), hierarchy, config, runtime,
                   fast=fast, injector=injector, watchdog=watchdog)
    for reg, value in zip(FP, (1.5, -0.75, 2.25)):
        core.ctx.regs[reg] = value
    return core


def _state(core):
    """Everything observable, as reprs: NaN registers compare equal and
    ``1`` differs from ``1.0``."""
    runtime = core.runtime
    injector = core.injector
    state = {
        "regs": list(core.ctx.regs),
        "pc": core.ctx.pc,
        "halted": core.ctx.halted,
        "words": sorted(core.memory._words.items()),
        "unmapped": core.memory.unmapped_reads,
        "stats": dataclasses.asdict(core.stats),
        "clocks": (core._issue_clock, core._fetch_stall_until,
                   core._completion_max, core._trace_entry_issue),
        "rob": (list(core._rob), core._rob_idx),
        "loadq": (list(core._loadq), core._loadq_idx),
        "ready": list(core._reg_ready),
        "trace": (core._trace is not None, core._trace_idx),
        "bp": list(core._bp_table),
        "memory_stats": repr(core.hierarchy.stats),
        "runtime": list(runtime.log),
        "helper": (runtime.helper.jobs_run, runtime.helper.jobs_failed,
                   runtime.helper.busy_until, runtime.helper.stalled_until,
                   runtime.helper.total_busy_cycles),
        "disps": [t.inst.disp for t in runtime.trace.body],
        "faults": None if injector is None else list(injector.log),
    }
    return {key: repr(value) for key, value in state.items()}


def _run_chunks(core, chunks):
    """Run ``core`` chunk by chunk; the state after each, and the stall
    error that ended the run early (if any)."""
    states = []
    target = 0
    for size in chunks:
        if core.ctx.halted:
            break
        target += size
        try:
            core.run(target, drain=False)
        except SimulationStallError as exc:
            states.append(_state(core))
            return states, str(exc)
        states.append(_state(core))
    return states, None


#: A self-looping trace: it re-enters itself without returning, so
#: faults and helper jobs land inside one generated-function call.
_LOOP = (
    _inst(Opcode.LDQ, 2, rd=2, ra=ADDR, disp=8),
    _inst(Opcode.PREFETCH, 3, synthetic=True, ra=ADDR, disp=512),
    _inst(Opcode.ADDQ, 4, rd=3, ra=3, imm=1),
)
_FAIL = FaultPlan(events=(FaultEvent(kind="helper_fail", at_cycle=300),))
_STALL = FaultPlan(events=(
    FaultEvent(kind="helper_stall", at_cycle=300, duration_cycles=200),
))


@settings(
    max_examples=MAX_EXAMPLES,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=cases())
@example(case=(_LOOP, HEAD, (1, 2, 3, 4, 5, 3000), None, None, 1.0))
@example(case=(_LOOP, HEAD, (3000,), _FAIL, 5, 1.05))
@example(case=(_LOOP, HEAD, (3000,), _STALL, None, 1.05))
def test_generated_trace_matches_reference(case):
    fast, fast_error = _run_chunks(_core(case, fast=True), case[2])
    slow, slow_error = _run_chunks(_core(case, fast=False), case[2])
    assert fast_error == slow_error
    assert len(fast) == len(slow)
    for chunk, (f, s) in enumerate(zip(fast, slow)):
        assert f == s, f"chunk {chunk} diverged"


# ---------------------------------------------------------------------------
# Directed tests: live repairs, the code cache, restore, the source.
# ---------------------------------------------------------------------------
def _loop_program(iters=200):
    asm = Assembler("t")
    asm.li("r1", iters)
    asm.li("r5", BASE)
    asm.label("loop")                 # pc 2
    asm.ldq("r2", "r5", 0)
    asm.lda("r5", "r5", 8)
    asm.subq("r1", "r1", imm=1)
    asm.bne("r1", "loop")
    asm.halt()
    return asm.build()


def _prefetch_trace(program, disp):
    trace = form_trace(program, 2, [True], TridentConfig())
    prefetch = TraceInstruction(
        inst=Instruction(opcode=Opcode.PREFETCH, ra=5, disp=disp),
        orig_pc=2, synthetic=True,
    )
    trace.body.insert(1, prefetch)
    return trace, prefetch


class _Recorder:
    """Records software prefetch addresses on their way down."""

    def __init__(self, hierarchy):
        self.addrs = []
        real = hierarchy.software_prefetch

        def prefetch(addr, cycle):
            self.addrs.append(addr)
            return real(addr, cycle)

        hierarchy.software_prefetch = prefetch


def test_patched_prefetch_disp_is_read_at_run_time():
    program = _loop_program()
    trace, prefetch = _prefetch_trace(program, disp=0)
    config = MachineConfig()
    hierarchy = MemoryHierarchy(config)
    recorder = _Recorder(hierarchy)
    core = SMTCore(program, DataMemory(), hierarchy, config,
                   _Runtime(trace, repairs=False))
    core.run(12)
    bound = core._trace_run
    assert bound is not None and recorder.addrs
    assert all(addr % 8 == 0 for addr in recorder.addrs)
    prefetch.inst.disp = 1028   # a repair, after the trace was compiled
    seen = len(recorder.addrs)
    core.run(40)
    assert core._trace_run is bound   # read live, not regenerated
    later = recorder.addrs[seen:]
    # r5 steps by 8 from BASE, so each prefetch is BASE + 8i + 1028.
    assert later and all((addr - 1028 - BASE) % 8 == 0 for addr in later)


def test_second_core_reuses_code_and_binds_its_own_state():
    program = _loop_program()
    config = MachineConfig()
    cores = []
    for _ in range(2):
        trace = form_trace(program, 2, [True], TridentConfig())
        core = SMTCore(program, DataMemory(), MemoryHierarchy(config),
                       config, _Runtime(trace))
        core.run(50)
        cores.append(core)
    first, second = (core._trace_run for core in cores)
    assert first is not second
    assert first.__code__ is second.__code__
    cells = [dict(zip(run.__code__.co_freevars,
                      (c.cell_contents for c in run.__closure__)))
             for run in (first, second)]
    assert cells[0]["stats"] is cores[0].stats
    assert cells[1]["stats"] is cores[1].stats
    assert cells[0]["regs"] is not cells[1]["regs"]


def _count_compiles(monkeypatch):
    """Start the binder cache empty; the kinds of the sources it
    compiles from now on, in order."""
    monkeypatch.setattr(fastpath, "_BINDERS", {})
    compiled = []
    real = fastpath._load_binder

    def load(source, kind):
        compiled.append(kind)
        return real(source, kind)

    monkeypatch.setattr(fastpath, "_load_binder", load)
    return compiled


def test_compiles_each_source_once(monkeypatch):
    program = _loop_program()
    config = MachineConfig()
    compiled = _count_compiles(monkeypatch)
    for _ in range(3):
        trace = form_trace(program, 2, [True], TridentConfig())
        SMTCore(program, DataMemory(), MemoryHierarchy(config), config,
                _Runtime(trace)).run(50)
    assert compiled.count("trace") == 1


def _sources(program, runtime):
    """The distinct step templates ``program`` needs."""
    return {fastpath.step_source(*fastpath.step_shape(inst, runtime))
            for inst in program.instructions}


def test_compiles_each_step_source_once(monkeypatch):
    """Each distinct step template compiles once per process: a second
    core, and a second program sharing some of its templates, reuse it."""
    compiled = _count_compiles(monkeypatch)
    config = MachineConfig()
    first = _loop_program()
    second = _program()
    cores = []
    for program in (first, first, second):
        core = SMTCore(program, DataMemory(), MemoryHierarchy(config),
                       config)
        core.run(40)
        cores.append(core)
    shared = _sources(first, False) & _sources(second, False)
    assert shared
    assert compiled == ["step"] * len(_sources(first, False)
                                      | _sources(second, False))
    assert (cores[0]._fast_handlers[2].__code__
            is cores[1]._fast_handlers[2].__code__)
    # A core with a runtime renders the runtime variant of each shape.
    trace = form_trace(first, 2, [True], TridentConfig())
    SMTCore(first, DataMemory(), MemoryHierarchy(config), config,
            _Runtime(trace)).run(40)
    assert compiled.count("step") == len(
        _sources(first, False) | _sources(second, False)
    ) + len(_sources(first, True))


def test_evicting_a_step_source_drops_its_lines(monkeypatch):
    import linecache

    monkeypatch.setattr(fastpath, "_BINDERS", {})
    monkeypatch.setattr(fastpath, "_BINDERS_MAX", 1)
    config = MachineConfig()
    core = SMTCore(_loop_program(), DataMemory(), MemoryHierarchy(config),
                   config)
    core.run(20)
    names = {handler.__code__.co_filename
             for handler in core._fast_handlers}
    assert len(names) == len(_sources(core.program, False)) > 1
    assert all(name.startswith("<step ") for name in names)
    kept = [name for name in names if name in linecache.cache]
    assert len(kept) == len(fastpath._BINDERS) == 1
    core.run(200)   # bound steps outlive their cache entries
    assert core.stats.committed == 200


def test_binder_cache_starts_over_when_full(monkeypatch):
    import linecache

    monkeypatch.setattr(fastpath, "_BINDERS", {})
    monkeypatch.setattr(fastpath, "_BINDERS_MAX", 1)
    config = MachineConfig()
    cores = []
    program = _loop_program(300)
    for fallthrough in (5, 6):   # different literals: two sources
        trace = form_trace(program, 2, [True], TridentConfig())
        trace.fallthrough_pc = fallthrough
        core = SMTCore(program, DataMemory(), MemoryHierarchy(config),
                       config, _Runtime(trace))
        core.run(20)
        cores.append(core)
    first, second = (core._trace_run.__code__.co_filename for core in cores)
    assert first != second
    assert len(fastpath._BINDERS) == 1
    assert first not in linecache.cache and second in linecache.cache
    cores[0].run(200)   # a bound function outlives its cache entry
    assert cores[0].stats.committed == 200


def test_generated_lines_show_in_tracebacks(monkeypatch):
    import linecache
    import traceback

    monkeypatch.setattr(fastpath, "_BINDERS", {})
    program = _loop_program()
    config = MachineConfig()
    trace = form_trace(program, 2, [True], TridentConfig())
    runtime = _Runtime(trace)

    def boom(*args):
        raise RuntimeError("boom")

    runtime.on_trace_load = boom
    core = SMTCore(program, DataMemory(), MemoryHierarchy(config), config,
                   runtime)
    with pytest.raises(RuntimeError) as info:
        core.run(50)
    frames = traceback.extract_tb(info.value.__traceback__)
    generated = [f for f in frames if f.filename.startswith("<trace ")]
    assert generated and "on_trace_load" in generated[-1].line
    assert linecache.getline(generated[-1].filename, generated[-1].lineno)
