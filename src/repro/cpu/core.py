"""The SMT core timing model.

SMTSIM (the paper's simulator) is a cycle-accurate 20-stage out-of-order
SMT model.  Re-running that per-cycle in Python is not viable, so the core
here is a *dataflow timing model* — the standard critical-path abstraction
of an OOO machine:

* instructions issue in program order at ``issue_width`` per cycle;
* each instruction *completes* at ``max(issue, sources ready) + latency``;
  completions do not block later issues, so independent work overlaps;
* a ROB window constrains issue: instruction *k* cannot issue before
  instruction *k − rob_entries* completed (a full window stalls the
  front end exactly like a real ROB);
* a 64-entry memory queue likewise bounds loads in flight;
* a mispredicted branch stalls fetch until ``resolve + penalty``.

This reproduces the behaviours the paper's results rest on: independent
strided misses overlap (memory-level parallelism, bounded by the ROB and
the fill bus), dependent pointer-chasing misses serialise, long-latency
loads that feed branches hurt doubly, and software prefetch instructions
cost issue bandwidth but never stall.

The core executes two kinds of instruction streams: the original program,
and linked hot traces (entered when the PC hits a patched address, exited
when a trace branch goes the unexpected way).  A narrow hook interface
(duck-typed ``runtime``) lets Trident observe branches, trace loads, and
trace executions without the core knowing anything about optimization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..config import MachineConfig
from ..isa.opcodes import Opcode
from ..isa.program import Program
from ..memory.hierarchy import MemoryHierarchy
from ..memory.mainmem import DataMemory
from .context import ThreadContext
from .executor import Executor
from .fastpath import (
    ALU_LATENCY,
    compile_batches,
    compile_program,
    compile_trace,
)

#: Execution latencies (cycles) by opcode class.
_INT_LATENCY = 1
_MUL_LATENCY = 3
_FP_LATENCY = 4
_DIV_LATENCY = 12
_MEM_QUEUE = 64


@dataclass
class CoreStats:
    """Counters the harness reads after a run."""

    committed: int = 0            # original-program instructions
    synthetic_executed: int = 0   # optimizer-inserted instructions
    trace_committed: int = 0      # original instructions executed via traces
    loads_executed: int = 0
    branch_mispredicts: int = 0
    conditional_branches: int = 0
    trace_entries: int = 0
    trace_exits_early: int = 0
    #: Demand-load misses, total and within hot traces (Figure 4).
    misses_total: int = 0
    misses_in_traces: int = 0
    #: Misses per original load PC, both inside and outside traces.
    miss_count_by_pc: Dict[int, int] = field(default_factory=dict)

    def reset_measurement(self) -> None:
        """Zero the per-measurement counters at the end of warmup.

        ``committed`` is left alone — it drives the run budget and the
        harness measures IPC from snapshots.
        """
        self.loads_executed = 0
        self.branch_mispredicts = 0
        self.conditional_branches = 0
        self.misses_total = 0
        self.misses_in_traces = 0
        self.miss_count_by_pc = {}


class SMTCore:
    """Single main-thread timing simulation with hot-trace execution."""

    def __init__(
        self,
        program: Program,
        memory: DataMemory,
        hierarchy: MemoryHierarchy,
        config: MachineConfig,
        runtime: Optional[object] = None,
        fast: bool = True,
    ) -> None:
        self.program = program
        self.memory = memory
        self.hierarchy = hierarchy
        self.config = config
        self.runtime = runtime
        #: Use the pre-decoded fast interpreter (repro.cpu.fastpath).
        #: ``fast=False`` keeps the generic step loop; both paths are
        #: byte-identical (tests/test_fastpath_equivalence.py).
        self.fast = fast
        #: Resilience hooks (repro.faults), injected by the Simulation:
        #: a FaultInjector ticked every step, and a Watchdog checked every
        #: ``watchdog.check_interval`` steps.  Both optional and duck-typed.
        self.injector: Optional[object] = None
        self.watchdog: Optional[object] = None
        #: Observability hook (repro.obs): one attribute check per emit
        #: site when disabled.  Consecutive entries of the same trace
        #: collapse to one event so hot loops don't flood the ring.
        self.obs: Optional[object] = None
        self._obs_last_trace: Optional[int] = None

        self.ctx = ThreadContext(entry=program.entry)
        self.executor = Executor(memory)
        self.stats = CoreStats()

        # Timing state.
        self._issue_cost = 1.0 / config.issue_width
        self._issue_clock = 0.0
        self._fetch_stall_until = 0.0
        self._completion_max = 0.0
        self._reg_ready = [0.0] * 32
        self._rob = [0.0] * config.rob_entries
        self._rob_idx = 0
        self._loadq = [0.0] * _MEM_QUEUE
        self._loadq_idx = 0

        # Branch predictor: 2-bit counters, direct-mapped by branch PC.
        self._bp_table = [2] * 4096

        # Trace execution state.
        self._trace = None
        self._trace_idx = 0
        self._trace_entry_issue = 0.0

        # Fast-path state: per-PC decoded handlers + basic-block run
        # lengths for the program (built lazily on the first run), and
        # the handler list for the currently-executing trace.
        self._fast_handlers = None
        self._fast_block_len = None
        self._fast_batches = None
        self._trace_handlers = None

    # ------------------------------------------------------------------
    # Checkpointing (repro.checkpoint): the fast-path caches are closures
    # over live component state and cannot (and need not) be pickled —
    # they are pure derived state, rebuilt lazily by the next run call
    # (and eagerly for a mid-trace core by checkpoint.restore, which
    # needs the handler list before the next step).
    _VOLATILE = (
        "_fast_handlers",
        "_fast_block_len",
        "_fast_batches",
        "_trace_handlers",
    )

    def __getstate__(self):
        state = dict(self.__dict__)
        for name in self._VOLATILE:
            state[name] = None
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)

    # ------------------------------------------------------------------
    @property
    def cycles(self) -> float:
        """Total execution time so far (critical-path completion)."""
        return max(self._completion_max, self._issue_clock)

    def snapshot(self) -> tuple:
        """(committed, cycles) — for interval IPC measurements."""
        return (self.stats.committed, self.cycles)

    # ------------------------------------------------------------------
    # Timing helpers.
    # ------------------------------------------------------------------
    def _issue(self) -> float:
        """Advance the front end and return this instruction's issue time."""
        cost = self._issue_cost
        runtime = self.runtime
        if runtime is not None and runtime.helper_busy_until > self._issue_clock:
            cost *= self.config.helper_interference
        issue = self._issue_clock + cost
        if issue < self._fetch_stall_until:
            issue = self._fetch_stall_until
        rob_limit = self._rob[self._rob_idx]
        if issue < rob_limit:
            issue = rob_limit
        self._issue_clock = issue
        return issue

    def _retire(self, completion: float) -> None:
        self._rob[self._rob_idx] = completion
        self._rob_idx += 1
        if self._rob_idx == len(self._rob):
            self._rob_idx = 0
        if completion > self._completion_max:
            self._completion_max = completion

    def _predict_branch(self, pc: int, taken: bool) -> bool:
        """Update the 2-bit predictor; return True on a correct prediction."""
        slot = pc & 4095
        counter = self._bp_table[slot]
        predicted = counter >= 2
        if taken:
            if counter < 3:
                self._bp_table[slot] = counter + 1
        else:
            if counter > 0:
                self._bp_table[slot] = counter - 1
        return predicted == taken

    # ------------------------------------------------------------------
    # Per-kind timing.  Each returns the completion time.
    # ------------------------------------------------------------------
    def _time_load(
        self, inst, issue: float, ea: int, tag_pc: int, synthetic: bool
    ):
        ready = self._reg_ready
        access = issue
        addr_ready = ready[inst.ra]
        if addr_ready > access:
            access = addr_ready
        lq_limit = self._loadq[self._loadq_idx]
        if lq_limit > access:
            access = lq_limit
        outcome = self.hierarchy.load(
            tag_pc, ea, int(access)
        ) if not synthetic else self.hierarchy.load_synthetic(ea, int(access))
        completion = access + outcome.latency
        self._loadq[self._loadq_idx] = completion
        self._loadq_idx += 1
        if self._loadq_idx == _MEM_QUEUE:
            self._loadq_idx = 0
        if inst.rd is not None and inst.rd != 31:
            ready[inst.rd] = completion
        return completion, outcome, access

    def _time_alu(self, inst, issue: float) -> float:
        ready = self._reg_ready
        start = issue
        ra = inst.ra
        if ra is not None and ready[ra] > start:
            start = ready[ra]
        rb = inst.rb
        if rb is not None and ready[rb] > start:
            start = ready[rb]
        completion = start + ALU_LATENCY.get(inst.opcode, _INT_LATENCY)
        if inst.rd is not None and inst.rd != 31:
            ready[inst.rd] = completion
        return completion

    # ------------------------------------------------------------------
    # Main loop.
    # ------------------------------------------------------------------
    def run(self, max_instructions: int, drain: bool = True) -> CoreStats:
        """Run until ``max_instructions`` original instructions or HALT.

        ``drain=False`` skips the end-of-call fill drain — for callers
        that stop mid-run to sample and resume: the drain looks one cycle
        ahead, so draining at a chunk boundary would install fills
        earlier than an unchunked run and fork the cache state.

        Raises :class:`~repro.errors.SimulationStallError` when an armed
        watchdog sees a commit stall or an exhausted cycle or wall-time
        budget.
        """
        watchdog = self.watchdog
        if watchdog is not None:
            watchdog.start()
            watchdog.reset_progress()
        if self.fast:
            self._run_fast(max_instructions)
        else:
            self._run_slow(max_instructions)
        if drain:
            self.hierarchy.drain(int(self.cycles) + 1)
        return self.stats

    def _run_slow(self, budget: int) -> None:
        """The generic re-decoding step loop (``fast=False``)."""
        stats = self.stats
        injector = self.injector
        watchdog = self.watchdog
        steps_until_check = 0
        if watchdog is not None:
            steps_until_check = watchdog.check_interval
        while not self.ctx.halted and stats.committed < budget:
            if self._trace is not None:
                self._step_trace()
            else:
                self._step_original()
            runtime = self.runtime
            if runtime is not None:
                runtime.tick(self._issue_clock)
            if injector is not None:
                injector.tick(self._issue_clock, stats.committed)
            if watchdog is not None:
                steps_until_check -= 1
                if steps_until_check <= 0:
                    steps_until_check = watchdog.check_interval
                    watchdog.check(stats.committed, self.cycles)

    def _run_fast(self, budget: int) -> None:
        """Pre-decoded dispatch loop; see :mod:`repro.cpu.fastpath`.

        Two variants.  With a runtime or injector attached, every step
        is followed by the ``runtime.tick``/``injector.tick``/watchdog
        sequence of :meth:`_run_slow`, in the same order, except that
        ``runtime.tick`` is called only when it can act: the helper's
        job is due, or no job runs, an event is queued and the helper
        is not stalled (DESIGN.md §5c‴).  The guard is ``tick``'s own
        early-return test, read from live state on every step, so
        helper-thread dispatch and fault timing stay cycle-identical.
        Without them, straight-line runs of pure-register instructions
        execute as a batch: no memory, branch, or hook can fire inside
        a batch, and the watchdog clamp below makes every
        ``watchdog.check`` land on the exact step it would have in the
        per-step loop.
        """
        ctx = self.ctx
        stats = self.stats
        runtime = self.runtime
        injector = self.injector
        watchdog = self.watchdog
        handlers = self._fast_handlers
        if handlers is None:
            handlers, self._fast_block_len = compile_program(self)
            self._fast_handlers = handlers
        check_interval = 0
        steps_until_check = 0
        if watchdog is not None:
            check_interval = watchdog.check_interval
            steps_until_check = check_interval

        if runtime is not None or injector is not None:
            if runtime is not None:
                helper = runtime.helper
                queued = runtime.events._queue
            while not ctx.halted and stats.committed < budget:
                if self._trace is not None:
                    self._trace_handlers[self._trace_idx]()
                else:
                    handlers[ctx.pc]()
                if runtime is not None:
                    clock = self._issue_clock
                    job = helper._job
                    if job is not None:
                        if clock >= job.ready:
                            runtime.tick(clock)
                    elif queued and clock >= helper.stalled_until:
                        runtime.tick(clock)
                if injector is not None:
                    injector.tick(self._issue_clock, stats.committed)
                if watchdog is not None:
                    steps_until_check -= 1
                    if steps_until_check <= 0:
                        steps_until_check = check_interval
                        watchdog.check(stats.committed, self.cycles)
            return

        # No per-step hooks: batched basic-block execution.  (Traces
        # cannot be active here — entering one requires a runtime.)
        # A block entered at its leader runs whole as one closure that
        # keeps the scalar pipeline state in locals (see fastpath.
        # compile_batches); clamped runs — budget tail or a watchdog
        # boundary — and the rest of a block entered mid-way after one
        # step the per-instruction handlers.
        block_len = self._fast_block_len
        batches = self._fast_batches
        if batches is None:
            batches = compile_batches(self)
            self._fast_batches = batches
        while not ctx.halted and stats.committed < budget:
            pc = ctx.pc
            run_len = block_len[pc]
            remaining = budget - stats.committed
            if run_len > remaining:
                run_len = remaining
            if watchdog is not None:
                if run_len > steps_until_check:
                    run_len = steps_until_check
            if run_len > 1:
                batch = batches[pc]
                if batch is not None and run_len == block_len[pc]:
                    batch()
                else:
                    for handler in handlers[pc:pc + run_len]:
                        handler()
            else:
                handlers[pc]()
                run_len = 1
            if watchdog is not None:
                steps_until_check -= run_len
                if steps_until_check <= 0:
                    steps_until_check = check_interval
                    watchdog.check(stats.committed, self.cycles)

    def _enter_trace_if_patched(self, pc: int) -> None:
        runtime = self.runtime
        if runtime is None:
            return
        trace = runtime.trace_at(pc)
        if trace is not None:
            self._enter_trace(trace, pc)

    def _enter_trace(self, trace, pc: int) -> None:
        """Switch execution into ``trace`` (the PC hit a patched head).

        Split from :meth:`_enter_trace_if_patched` so decoded fast-path
        handlers, which probe the patch map themselves, can enter
        directly without re-resolving the trace.
        """
        self._trace = trace
        self._trace_idx = 0
        self._trace_entry_issue = self._issue_clock
        if self.fast:
            # Decoded handlers are cached on the trace, keyed on
            # body identity + length: derived traces are new
            # objects (no stale cache), and in-place patches to
            # prefetch displacements are read live by the handlers
            # so they never invalidate the cache.
            cached = getattr(trace, "_fast_cache", None)
            if (
                cached is not None
                and cached[0] is trace.body
                and cached[1] == len(trace.body)
            ):
                self._trace_handlers = cached[2]
            else:
                handlers = compile_trace(self, trace)
                trace._fast_cache = (trace.body, len(trace.body), handlers)
                self._trace_handlers = handlers
        self.stats.trace_entries += 1
        obs = self.obs
        if obs is not None and trace.trace_id != self._obs_last_trace:
            self._obs_last_trace = trace.trace_id
            obs.emit(
                "trace_enter",
                self._issue_clock,
                trace_id=trace.trace_id,
                pc=pc,
            )

    def _step_original(self) -> None:
        ctx = self.ctx
        pc = ctx.pc
        inst = self.program.instructions[pc]
        res = self.executor.execute(inst, ctx)
        issue = self._issue()
        stats = self.stats
        stats.committed += 1

        next_pc = pc + 1
        op = inst.opcode
        if res.ea is not None:
            if inst.is_load:
                completion, outcome, _access = self._time_load(
                    inst, issue, res.ea, pc, synthetic=False
                )
                stats.loads_executed += 1
                if outcome.is_miss:
                    stats.misses_total += 1
                    by_pc = stats.miss_count_by_pc
                    by_pc[pc] = by_pc.get(pc, 0) + 1
            elif op is Opcode.STQ:
                ready = self._reg_ready
                completion = max(issue, ready[inst.ra], ready[inst.rd]) + 1
                self.hierarchy.store(res.ea, int(completion))
            else:  # PREFETCH in original code (rare; legal)
                access = max(issue, self._reg_ready[inst.ra])
                self.hierarchy.software_prefetch(res.ea, int(access))
                completion = access
        elif res.taken is not None:
            if op is Opcode.BR:
                completion = issue
                next_pc = inst.target
            elif op is Opcode.JMP:
                resolve = max(issue, self._reg_ready[inst.ra]) + _INT_LATENCY
                self._fetch_stall_until = (
                    resolve + self.config.mispredict_penalty
                )
                completion = resolve
                next_pc = res.jump_target
            else:
                taken = res.taken
                stats.conditional_branches += 1
                resolve = max(issue, self._reg_ready[inst.ra]) + _INT_LATENCY
                if not self._predict_branch(pc, taken):
                    stats.branch_mispredicts += 1
                    self._fetch_stall_until = (
                        resolve + self.config.mispredict_penalty
                    )
                completion = resolve
                if taken:
                    next_pc = inst.target
                runtime = self.runtime
                if runtime is not None:
                    runtime.on_branch(pc, taken, inst.target, self._issue_clock)
        elif res.halted:
            completion = issue
        elif op is Opcode.NOP or op is Opcode.HALT:
            completion = issue
        else:
            completion = self._time_alu(inst, issue)

        self._retire(completion)
        ctx.pc = next_pc
        if not ctx.halted:
            self._enter_trace_if_patched(next_pc)

    def _step_trace(self) -> None:
        trace = self._trace
        body = trace.body
        tinst = body[self._trace_idx]
        inst = tinst.inst
        ctx = self.ctx
        res = self.executor.execute(inst, ctx)
        issue = self._issue()
        stats = self.stats
        synthetic = tinst.synthetic
        if synthetic:
            stats.synthetic_executed += 1
        else:
            stats.committed += 1
            stats.trace_committed += 1

        exit_pc = None
        op = inst.opcode
        if res.ea is not None:
            if inst.is_load:
                completion, outcome, access = self._time_load(
                    inst, issue, res.ea, tinst.orig_pc, synthetic=synthetic
                )
                if not synthetic:
                    stats.loads_executed += 1
                    if outcome.is_miss:
                        stats.misses_total += 1
                        stats.misses_in_traces += 1
                        by_pc = stats.miss_count_by_pc
                        by_pc[tinst.orig_pc] = by_pc.get(tinst.orig_pc, 0) + 1
                    runtime = self.runtime
                    if runtime is not None:
                        runtime.on_trace_load(
                            tinst.orig_pc, trace, res.ea, outcome, access
                        )
            elif op is Opcode.STQ:
                ready = self._reg_ready
                completion = max(issue, ready[inst.ra], ready[inst.rd]) + 1
                self.hierarchy.store(res.ea, int(completion))
            else:  # PREFETCH
                access = max(issue, self._reg_ready[inst.ra])
                self.hierarchy.software_prefetch(res.ea, int(access))
                completion = access
        elif res.taken is not None and op is not Opcode.BR:
            taken = res.taken
            stats.conditional_branches += 1
            resolve = max(issue, self._reg_ready[inst.ra]) + _INT_LATENCY
            if not self._predict_branch(tinst.orig_pc, taken):
                stats.branch_mispredicts += 1
                self._fetch_stall_until = (
                    resolve + self.config.mispredict_penalty
                )
            completion = resolve
            if taken != tinst.expected_taken:
                exit_pc = inst.target if taken else tinst.orig_pc + 1
        elif op is Opcode.BR:
            completion = issue
        elif res.halted:
            completion = issue
        elif op is Opcode.NOP:
            completion = issue
        else:
            completion = self._time_alu(inst, issue)

        self._retire(completion)

        if ctx.halted:
            self._trace = None
            return

        if exit_pc is not None:
            stats.trace_exits_early += 1
            self._finish_trace(trace, completed=False)
            ctx.pc = exit_pc
            self._enter_trace_if_patched(exit_pc)
            return

        self._trace_idx += 1
        if self._trace_idx >= len(body):
            self._finish_trace(trace, completed=True)
            next_pc = trace.fallthrough_pc
            ctx.pc = next_pc
            self._enter_trace_if_patched(next_pc)

    def _finish_trace(self, trace, completed: bool) -> None:
        self._trace = None
        self._trace_idx = 0
        obs = self.obs
        if obs is not None and not completed:
            obs.emit(
                "trace_exit",
                self._issue_clock,
                trace_id=trace.trace_id,
                early=True,
            )
        runtime = self.runtime
        if runtime is not None:
            duration = self._issue_clock - self._trace_entry_issue
            runtime.on_trace_execution(
                trace, duration, completed, self._issue_clock
            )
