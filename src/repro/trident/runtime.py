"""TridentRuntime: the event-driven optimization framework, assembled.

This object implements the narrow hook interface the
:class:`~repro.cpu.core.SMTCore` drives:

* ``trace_at(pc)`` — the code-cache patch check at fetch;
* ``on_branch`` — feeds the branch profiler (original-code branches only);
* ``on_trace_load`` — feeds the DLT and fires delinquent-load events;
* ``on_trace_execution`` — feeds the watch table;
* ``tick`` — completes helper-thread jobs and dispatches queued events;
* ``helper_busy_until`` — lets the core charge SMT interference.

Event flow (paper section 3.2): profiler saturation → HotTraceEvent →
helper forms, base-optimizes and links a trace; DLT window crossing →
DelinquentLoadEvent → helper inserts or repairs prefetches.  The watch
table's optimization flag suppresses further events for a trace already
being re-optimized.

``overhead_only`` reproduces the paper's section-5.1 cost measurement: the
optimizer runs (and charges interference) but its traces are never linked,
so the main thread executes unmodified code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Set

from ..config import (
    SOFTWARE_PREFETCHING_POLICIES,
    MachineConfig,
    PrefetchPolicy,
    TridentConfig,
)
from ..core.optimizer import PrefetchOptimizer
from ..isa.program import Program
from ..logutil import get_logger
from ..memory.stats import LoadOutcome, OutcomeKind
from .branch_profiler import BranchProfiler
from .code_cache import CodeCache
from .dlt import DelinquentLoadTable
from .events import DelinquentLoadEvent, EventQueue, HotTraceEvent
from .helper_thread import HelperThread
from .optimizations import optimize_trace_body
from .trace import HotTrace, TraceIdAllocator
from .trace_formation import form_trace
from .watch_table import WatchTable

_log = get_logger("trident")

#: The two L1-hit classifications, bound once: ``on_trace_load`` tests
#: ``LoadOutcome.is_miss`` by identity without the property call or a
#: per-load Enum member read (DESIGN.md §5c‴).
_HIT = OutcomeKind.HIT
_HIT_PF = OutcomeKind.HIT_PREFETCHED


@dataclass
class _LinkTraceApply:
    """Helper-job completion: link a freshly formed trace.

    An object rather than a closure so an in-flight job can ride inside a
    simulator snapshot (repro.checkpoint); both fields are already part
    of the simulated object graph, so pickling preserves identity.
    """

    runtime: "TridentRuntime"
    trace: HotTrace

    def __call__(self) -> None:
        rt = self.runtime
        trace = self.trace
        rt.code_cache.link(trace)
        rt.watch_table.register(
            trace.trace_id, trace.head_pc, len(trace.body)
        )
        rt.traces_linked += 1
        rt.trace_load_pcs.update(trace.load_pcs())
        if rt.obs is not None:
            # Runs inside the helper job: stamped at job completion
            # via the observer's logical clock.
            rt.obs.emit(
                "trace_link",
                None,
                trace_id=trace.trace_id,
                head_pc=trace.head_pc,
                length=len(trace.body),
            )
        _log.debug(
            "linked trace %d @ pc %d (%d instructions)",
            trace.trace_id, trace.head_pc, len(trace.body),
        )


@dataclass
class _OptimizeApply:
    """Helper-job completion: run the optimizer's action, then reset the
    watch-table optimization flag — "before the optimizer finishes, it
    resets the hot trace's optimization flag" — on both the old and (if
    regenerated) the new trace's entries.  Picklable for the same reason
    as :class:`_LinkTraceApply`."""

    runtime: "TridentRuntime"
    trace: HotTrace
    inner: Callable[[], None]

    def __call__(self) -> None:
        rt = self.runtime
        watch = rt.watch_table
        try:
            self.inner()
        finally:
            watch.set_optimizing(self.trace.trace_id, False)
            current = rt.code_cache.lookup(self.trace.head_pc)
            if current is not None:
                watch.set_optimizing(current.trace_id, False)


class TridentRuntime:
    """Everything Trident: monitoring hardware + helper-thread optimizer."""

    def __init__(
        self,
        program: Program,
        machine: MachineConfig,
        trident: TridentConfig,
        policy: PrefetchPolicy,
        overhead_only: bool = False,
        initial_distance_mode: Optional[str] = None,
    ) -> None:
        self.program = program
        self.machine = machine
        self.trident = trident
        self.policy = policy
        self.overhead_only = overhead_only

        self.profiler = BranchProfiler(trident)
        self.watch_table = WatchTable(trident.watch_table_entries)
        self.dlt = DelinquentLoadTable(
            trident.dlt,
            delinquency_latency_threshold=machine.l2_miss_latency / 2,
        )
        self.code_cache = CodeCache()
        self.helper = HelperThread(machine.helper_startup_cycles)
        self.events = EventQueue()
        #: Per-runtime trace ids: identically-configured runs number
        #: their traces identically (exported traces are reproducible).
        self.trace_ids = TraceIdAllocator()
        self.optimizer = PrefetchOptimizer(
            machine=machine,
            trident=trident,
            policy=policy,
            dlt=self.dlt,
            watch_table=self.watch_table,
            code_cache=self.code_cache,
            initial_distance_mode=initial_distance_mode,
            trace_ids=self.trace_ids,
        )
        self.traces_formed = 0
        self.traces_linked = 0
        self.traces_backed_out = 0
        # Fault-injection hooks (repro.faults): delinquent-load events
        # fired before this cycle are discarded (a misbehaving event bus).
        self.drop_dlt_events_until = 0.0
        self.dlt_events_dropped = 0
        #: Original PCs of loads that ever appeared in a linked trace.
        self.trace_load_pcs = set()
        #: Backout bookkeeping: head PC -> times its trace was unlinked.
        self._backout_counts = {}

        # Phase-aware mature clearing (optional; section 3.5.2's noted
        # future work).
        self.phase_changes = 0
        self._phase_loads = 0
        self._phase_misses = 0
        self._phase_prev_rate: Optional[float] = None

        # Observability hook (repro.obs): attach_observer wires this
        # runtime plus every sub-component it owns.
        self.obs = None
        self._m_dl_events = None

    def attach_observer(self, obs) -> None:
        """Wire the observer through Trident: runtime, DLT, helper,
        optimizer.  One call from the Simulation covers the subsystem."""
        self.obs = obs
        self._m_dl_events = obs.metrics.counter("trident.dl_events")
        self.dlt.obs = obs
        self.helper.obs = obs
        self.optimizer.attach_observer(obs)

    # ------------------------------------------------------------------
    # Core-facing hooks.
    # ------------------------------------------------------------------
    @property
    def helper_busy_until(self) -> float:
        return self.helper.busy_until

    def trace_at(self, pc: int) -> Optional[HotTrace]:
        if self.overhead_only:
            return None
        return self.code_cache.lookup(pc)

    def on_branch(
        self, pc: int, taken: bool, target: Optional[int], cycle: float
    ) -> None:
        event = self.profiler.on_branch(pc, taken, target, cycle)
        if event is not None:
            self.events.push(event)

    def on_trace_load(
        self,
        load_pc: int,
        trace: HotTrace,
        ea: int,
        outcome: LoadOutcome,
        cycle: float,
    ) -> None:
        if self.policy not in SOFTWARE_PREFETCHING_POLICIES:
            return
        kind = outcome.kind
        is_miss = kind is not _HIT and kind is not _HIT_PF
        if self.trident.phase_detection:
            self._observe_phase(is_miss, cycle)
        fired = self.dlt.update(
            load_pc, ea, is_miss, outcome.latency if is_miss else 0
        )
        if not fired:
            return
        if cycle < self.drop_dlt_events_until:
            # Fault window: the event is lost.  The window restarts so the
            # load must re-earn delinquency once the bus heals.
            self.dlt_events_dropped += 1
            self.dlt.clear_window(load_pc)
            if self.obs is not None:
                self.obs.emit(
                    "dl_event_lost", cycle, pc=load_pc,
                    trace_id=trace.trace_id,
                )
            return
        if self.watch_table.is_optimizing(trace.trace_id):
            # Re-optimization in flight: the DLT entry stays pending and
            # the event re-fires once the flag clears.
            return
        pushed = self.events.push(
            DelinquentLoadEvent(
                load_pc=load_pc, trace_id=trace.trace_id, cycle=cycle
            )
        )
        if pushed:
            self.watch_table.set_optimizing(trace.trace_id, True)
            obs = self.obs
            if obs is not None:
                self._m_dl_events.inc()
                entry = self.dlt.peek(load_pc)
                fields = {"pc": load_pc, "trace_id": trace.trace_id}
                if entry is not None:
                    fields["miss_rate"] = entry.miss_rate()
                    fields["avg_miss_latency"] = entry.average_miss_latency()
                obs.emit("dl_event", cycle, **fields)

    def on_trace_execution(
        self, trace: HotTrace, duration: float, completed: bool, cycle: float
    ) -> None:
        self.watch_table.record_execution(trace.trace_id, duration, completed)
        self._maybe_back_out(trace, cycle)

    def _maybe_back_out(self, trace: HotTrace, cycle: float = 0.0) -> None:
        """The watch table's second duty: back out of a trace whose
        captured path keeps diverging from actual execution (the paper's
        "identify and back out of hot traces that are under-performing").

        An unlinked head may be re-captured (the profiler may record a
        better direction mix next time), a bounded number of times.
        """
        entry = self.watch_table.lookup(trace.trace_id)
        if entry is None or entry.being_optimized:
            return
        cfg = self.trident
        if entry.executions < cfg.backout_min_executions:
            return
        ratio = entry.completed_executions / entry.executions
        if ratio >= cfg.backout_completion_threshold:
            return
        self.code_cache.unlink(trace)
        self.watch_table.remove(trace.trace_id)
        self.traces_backed_out += 1
        if self.obs is not None:
            self.obs.emit(
                "trace_unlink",
                cycle,
                trace_id=trace.trace_id,
                head_pc=trace.head_pc,
                completion_ratio=ratio,
            )
        _log.debug(
            "backed out trace %d @ pc %d (completion ratio %.2f)",
            trace.trace_id, trace.head_pc, ratio,
        )
        attempts = self._backout_counts.get(trace.head_pc, 0) + 1
        self._backout_counts[trace.head_pc] = attempts
        if attempts <= cfg.backout_max_retries:
            self.profiler.forget(trace.head_pc)
        # else: the head stays captured — no further traces for it.

    # ------------------------------------------------------------------
    # Phase detection (optional extension; off by default).
    # ------------------------------------------------------------------
    def _observe_phase(self, is_miss: bool, cycle: float = 0.0) -> None:
        cfg = self.trident
        self._phase_loads += 1
        if is_miss:
            self._phase_misses += 1
        if self._phase_loads < cfg.phase_interval_loads:
            return
        rate = self._phase_misses / self._phase_loads
        self._phase_loads = 0
        self._phase_misses = 0
        prev = self._phase_prev_rate
        self._phase_prev_rate = rate
        if prev is None:
            return
        floor = max(prev, 0.02)
        if abs(rate - prev) > cfg.phase_shift_threshold * floor:
            self._on_phase_change(cycle, prev_rate=prev, new_rate=rate)

    def _on_phase_change(
        self,
        cycle: float = 0.0,
        prev_rate: float = 0.0,
        new_rate: float = 0.0,
    ) -> None:
        """A working-set shift: matured loads may be tunable again, so
        clear every mature flag (DLT entries and repair records) and
        refresh the records' budgets."""
        self.phase_changes += 1
        if self.obs is not None:
            self.obs.emit(
                "phase_change",
                cycle,
                prev_miss_rate=prev_rate,
                new_miss_rate=new_rate,
            )
        _log.info(
            "phase change at cycle %.0f (miss rate %.3f -> %.3f)",
            cycle, prev_rate, new_rate,
        )
        for entry in self.dlt.entries():
            entry.mature = False
        seen = set()
        for trace in self.code_cache.linked_traces():
            for record in trace.meta.get("records", {}).values():
                if id(record) in seen:
                    continue
                seen.add(id(record))
                if record.kind != "stride":
                    continue
                record.mature = False
                record.pinned_repairs = 0
                record.consecutive_increases = 0
                record.prev_avg_latency = None
                record.repairs_left = max(
                    record.repairs_left, record.max_distance
                )

    def tick(self, cycle: float) -> None:
        # The reference loop calls this once per committed instruction;
        # the fast loop only when a job is due or an event can dispatch
        # (DESIGN.md §5c‴).  Inline the idle case (no job in flight)
        # instead of paying helper.tick/available calls to discover
        # there is nothing to do.
        helper = self.helper
        if helper._job is None:
            if len(self.events) and cycle >= helper.stalled_until:
                self._dispatch(self.events.pop(), cycle)
            return
        helper.tick(cycle)
        if helper.available(cycle) and len(self.events):
            self._dispatch(self.events.pop(), cycle)

    def fail_helper_job(self) -> Optional[str]:
        """Fault hook: kill the in-flight helper job and recover.

        The job's effects are lost, so every watch-table optimization
        flag is cleared — otherwise the killed job's trace would be
        frozen out of optimization forever — and pending DLT windows
        restart so delinquency re-fires against the healed helper.
        """
        kind = self.helper.fail_current_job()
        if kind is None:
            return None
        self.watch_table.clear_optimizing_flags()
        for entry in self.dlt.entries():
            if entry.event_pending:
                self.dlt.clear_window(entry.tag)
        return kind

    # ------------------------------------------------------------------
    # Event dispatch (the helper thread's work).
    # ------------------------------------------------------------------
    def _dispatch(self, event, cycle: float) -> None:
        if isinstance(event, HotTraceEvent):
            self._dispatch_hot_trace(event, cycle)
        else:
            self._dispatch_delinquent_load(event, cycle)

    def _dispatch_hot_trace(self, event: HotTraceEvent, cycle: float) -> None:
        if self.code_cache.lookup(event.head_pc) is not None:
            return  # already linked (duplicate event)
        trace = form_trace(
            self.program, event.head_pc, event.directions, self.trident,
            ids=self.trace_ids,
        )
        if trace is None:
            return
        body, _counts = optimize_trace_body(trace.body)
        trace.body = body
        self.traces_formed += 1
        work = len(body) * self.trident.optimizer_cycles_per_instruction
        self.helper.schedule(
            cycle, work, _LinkTraceApply(runtime=self, trace=trace),
            kind="form",
        )

    def _dispatch_delinquent_load(
        self, event: DelinquentLoadEvent, cycle: float
    ) -> None:
        trace = self.code_cache.trace_by_id(event.trace_id)
        if trace is None:
            # The trace was replaced or backed out while the event
            # waited; restart the load's window — if it is still
            # delinquent under the current trace it will fire again.
            self.dlt.clear_window(event.load_pc)
            return
        job = self.optimizer.process_delinquent_load(trace, event.load_pc)
        if job is None:
            self.watch_table.set_optimizing(trace.trace_id, False)
            self.dlt.clear_window(event.load_pc)
            return
        self.helper.schedule(
            cycle,
            job.work_cycles,
            _OptimizeApply(runtime=self, trace=trace, inner=job.apply),
            kind=job.kind,
        )

    # ------------------------------------------------------------------
    # Reporting helpers.
    # ------------------------------------------------------------------
    def prefetch_targeted_pcs(self) -> Set[int]:
        """Original PCs of loads ever targeted by an inserted prefetch."""
        return set(self.optimizer.stats.loads_targeted)
