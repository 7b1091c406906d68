"""Directed tests of hot-trace execution inside the SMT core: entry,
exit, fall-through, synthetic instruction accounting."""

import pytest

from repro.config import MachineConfig, TridentConfig
from repro.cpu.core import SMTCore
from repro.isa.assembler import Assembler
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.mainmem import DataMemory
from repro.trident.trace import TraceInstruction
from repro.trident.trace_formation import form_trace


class _FakeHelper:
    def __init__(self, busy_until=0.0):
        self.busy_until = busy_until
        self._job = None
        self.stalled_until = 0.0


class _FakeCodeCache:
    def __init__(self, patch_map):
        self._patch_map = patch_map


class _FakeEvents:
    def __init__(self):
        self._queue = []


class FakeRuntime:
    """Minimal runtime stub: serves one trace, records hook calls.

    Mirrors both runtime views the core consumes: the ``trace_at`` /
    ``helper_busy_until`` methods used by the reference interpreter, and
    the attributes the decoded fast path reads directly: the
    ``code_cache._patch_map`` and ``helper.busy_until`` it binds at
    compile time, plus the ``helper._job``, ``helper.stalled_until`` and
    ``events._queue`` its dispatch loop tests before calling ``tick``.
    With no job and no queued event the fast loop never calls ``tick``.
    """

    overhead_only = False

    def __init__(self, trace, busy_until=0.0):
        self.trace = trace
        self.helper = _FakeHelper(busy_until)
        self.events = _FakeEvents()
        self.code_cache = _FakeCodeCache(
            {trace.head_pc: trace} if trace is not None else {}
        )
        self.loads = []
        self.executions = []
        self.branches = []

    @property
    def helper_busy_until(self):
        return self.helper.busy_until

    def trace_at(self, pc):
        if self.trace is not None and pc == self.trace.head_pc:
            return self.trace
        return None

    def on_branch(self, pc, taken, target, cycle):
        self.branches.append((pc, taken))

    def on_trace_load(self, pc, trace, ea, outcome, cycle):
        self.loads.append((pc, ea, outcome.kind.value))

    def on_trace_execution(self, trace, duration, completed, cycle):
        self.executions.append((trace.trace_id, completed))

    def tick(self, cycle):
        pass


def loop_program(iters=50):
    asm = Assembler("t")
    asm.li("r1", iters)
    asm.li("r5", 0x100000)
    asm.label("loop")                 # pc 2
    asm.ldq("r2", "r5", 0)            # pc 2
    asm.addq("r3", "r3", rb="r2")
    asm.lda("r5", "r5", 8)
    asm.subq("r1", "r1", imm=1)
    asm.bne("r1", "loop")
    asm.halt()
    return asm.build()


def run_with_trace(program, trace, budget=10_000):
    config = MachineConfig()
    runtime = FakeRuntime(trace)
    core = SMTCore(
        program, DataMemory(), MemoryHierarchy(config), config, runtime
    )
    core.run(budget)
    return core, runtime


class TestTraceExecution:
    def test_loop_executes_inside_trace(self):
        program = loop_program(iters=50)
        trace = form_trace(program, 2, [True], TridentConfig())
        core, runtime = run_with_trace(program, trace)
        assert core.stats.trace_entries == 50
        # Loads inside the trace reported with their original PCs.
        assert runtime.loads
        assert all(pc == 2 for pc, _ea, _k in runtime.loads)
        # Completed executions reported to the watch table — all but the
        # final iteration, whose back edge falls through (early exit).
        completions = [c for _tid, c in runtime.executions]
        assert completions.count(False) == 1
        assert completions.count(True) == 49

    def test_architectural_results_identical_with_trace(self):
        program = loop_program(iters=50)
        config = MachineConfig()
        plain = SMTCore(
            program, DataMemory(), MemoryHierarchy(config), config
        )
        plain.run(10_000)
        trace = form_trace(program, 2, [True], TridentConfig())
        core, _ = run_with_trace(program, trace)
        assert core.ctx.halted and plain.ctx.halted
        assert core.ctx.regs == plain.ctx.regs

    def test_early_exit_resumes_original_code(self):
        # Trace expects the back edge taken: the final iteration exits.
        program = loop_program(iters=10)
        trace = form_trace(program, 2, [True], TridentConfig())
        core, runtime = run_with_trace(program, trace)
        assert core.ctx.halted
        assert core.stats.trace_exits_early == 1  # the last iteration
        assert core.ctx.regs[1] == 0

    def test_synthetic_instructions_not_committed(self):
        program = loop_program(iters=30)
        trace = form_trace(program, 2, [True], TridentConfig())
        # Hand-insert a prefetch + nf-load pair.
        trace.body.insert(
            0,
            TraceInstruction(
                inst=Instruction(Opcode.PREFETCH, ra=5, disp=64),
                orig_pc=2,
                synthetic=True,
            ),
        )
        trace.body.insert(
            0,
            TraceInstruction(
                inst=Instruction(Opcode.LDQ_NF, rd=28, ra=5, disp=0),
                orig_pc=2,
                synthetic=True,
            ),
        )
        plain_program = loop_program(iters=30)
        config = MachineConfig()
        plain = SMTCore(
            plain_program, DataMemory(), MemoryHierarchy(config), config
        )
        plain.run(10_000)
        core, runtime = run_with_trace(program, trace)
        assert core.ctx.halted
        # Committed counts match the unoptimized run exactly.
        assert core.stats.committed == plain.stats.committed
        assert core.stats.synthetic_executed == 2 * 30
        # The synthetic nf-load never reaches the DLT hook.
        assert all(pc == 2 for pc, _ea, _k in runtime.loads)
        assert len(runtime.loads) == 30

    def test_prefetch_in_trace_reaches_hierarchy(self):
        program = loop_program(iters=30)
        trace = form_trace(program, 2, [True], TridentConfig())
        trace.body.insert(
            0,
            TraceInstruction(
                inst=Instruction(Opcode.PREFETCH, ra=5, disp=640),
                orig_pc=2,
                synthetic=True,
            ),
        )
        core, _ = run_with_trace(program, trace)
        assert core.hierarchy.stats.software_prefetches_issued > 0

    def test_trace_interference_when_helper_busy(self):
        program = loop_program(iters=2_000)
        config = MachineConfig()

        idle_core, _ = run_with_trace(program, None, budget=8_000)
        busy = SMTCore(
            loop_program(iters=2_000), DataMemory(),
            MemoryHierarchy(config), config,
            FakeRuntime(None, busy_until=float("inf")),
        )
        busy.run(8_000)
        assert busy.cycles > idle_core.cycles


class _TickRecorder(FakeRuntime):
    """Records every ``tick`` cycle; never changes helper state."""

    def __init__(self):
        super().__init__(None)
        self.ticks = []

    def tick(self, cycle):
        self.ticks.append(cycle)


class _FakeJob:
    def __init__(self, ready):
        self.ready = ready


def _tick_cycles(fast, job_ready=None, stalled_until=0.0, queued=0):
    config = MachineConfig()
    runtime = _TickRecorder()
    if job_ready is not None:
        runtime.helper._job = _FakeJob(job_ready)
    runtime.helper.stalled_until = stalled_until
    runtime.events._queue.extend([object()] * queued)
    core = SMTCore(
        loop_program(iters=300), DataMemory(), MemoryHierarchy(config),
        config, runtime, fast=fast,
    )
    core.run(1_000)
    return runtime.ticks


class TestTickGuard:
    """The fast loop calls ``tick`` exactly on the steps where it can act,
    starting on the first step whose clock reaches the boundary; the
    reference loop calls it on every step."""

    @pytest.fixture(scope="class")
    def every_step(self):
        ticks = _tick_cycles(fast=False)
        assert len(ticks) == 1_000
        return ticks

    def test_idle_helper_and_empty_queue_never_tick(self):
        assert _tick_cycles(fast=True) == []
        assert _tick_cycles(fast=True, stalled_until=1e9, queued=1) == []

    def test_due_job_ticks_from_its_ready_cycle(self, every_step):
        ready = every_step[400]  # a cycle the clock lands on exactly
        expected = [c for c in every_step if c >= ready]
        assert _tick_cycles(fast=True, job_ready=ready) == expected
        # The reference loop still ticks every step.
        assert _tick_cycles(fast=False, job_ready=ready) == every_step

    def test_queued_event_ticks_once_the_stall_ends(self, every_step):
        end = every_step[400]
        expected = [c for c in every_step if c >= end]
        ticks = _tick_cycles(fast=True, stalled_until=end, queued=1)
        assert ticks == expected
        # A running job gates the queue: only its due check ticks.
        ticks = _tick_cycles(
            fast=True, job_ready=1e9, stalled_until=end, queued=1
        )
        assert ticks == []
