"""The fault injector: applies a :class:`FaultPlan` to a live simulation.

The injector is wired into the run through narrow hooks the simulated
components already expose — :class:`~repro.memory.hierarchy.MemoryHierarchy`
fault fields (``dram_latency_extra``, ``bus_occupancy_scale``,
``flush_caches``), :class:`~repro.trident.runtime.TridentRuntime` drop
windows and helper controls — never by forking simulator logic.  The core
calls :meth:`FaultInjector.tick` every step; the fast path is two integer
comparisons, so an armed injector costs nothing measurable until an event
is due.

Determinism: event application order is the plan order within a trigger,
trigger thresholds are exact, and all randomness (which DLT entries a
corruption storm hits) comes from a private ``random.Random(plan.seed)``.
Two runs with the same workload, config, and plan are bit-identical.
"""

from __future__ import annotations

import heapq
import random
from typing import Dict, List, Optional, Tuple

from .plan import FaultEvent, FaultPlan

#: Fault kinds that need the Trident runtime to exist.
_RUNTIME_KINDS = (
    "dlt_corrupt", "dlt_evict", "dlt_drop_events",
    "helper_stall", "helper_fail",
)


class FaultInjector:
    """Executes a fault plan against one simulation's components."""

    def __init__(
        self,
        plan: FaultPlan,
        hierarchy,
        runtime: Optional[object] = None,
    ) -> None:
        self.plan = plan
        self.hierarchy = hierarchy
        self.runtime = runtime
        self.rng = random.Random(plan.seed)
        #: Chronological record of everything applied (or skipped), for
        #: result reporting and determinism tests.
        self.log: List[Dict] = []
        self.faults_applied = 0
        self.faults_skipped = 0
        #: Observability hook (repro.obs): set by the Simulation.
        self.obs = None

        by_cycle = [e for e in plan.events if e.at_cycle is not None]
        by_inst = [e for e in plan.events if e.at_instruction is not None]
        #: Pending events, soonest last (popped from the end).
        self._by_cycle = sorted(
            by_cycle, key=lambda e: e.at_cycle, reverse=True
        )
        self._by_instruction = sorted(
            by_inst, key=lambda e: e.at_instruction, reverse=True
        )
        #: Scheduled window ends, a heap of (cycle, seq, hierarchy field,
        #: amount) that :meth:`_revert` undoes.  Plain data like every
        #: other window end, so a snapshot can be captured inside a window.
        self._reverts: List[Tuple[float, int, str, float]] = []
        self._revert_seq = 0
        self._next_cycle = float("inf")
        self._next_instruction = float("inf")
        self._refresh_thresholds()

    # ------------------------------------------------------------------
    def _refresh_thresholds(self) -> None:
        nxt = float("inf")
        if self._by_cycle:
            nxt = self._by_cycle[-1].at_cycle
        if self._reverts and self._reverts[0][0] < nxt:
            nxt = self._reverts[0][0]
        self._next_cycle = nxt
        self._next_instruction = (
            self._by_instruction[-1].at_instruction
            if self._by_instruction
            else float("inf")
        )

    @property
    def exhausted(self) -> bool:
        return (
            not self._by_cycle
            and not self._by_instruction
            and not self._reverts
        )

    def tick(self, cycle: float, committed: int) -> None:
        """Apply every event and window-end due by (``cycle``,
        ``committed``).  Called from the core's run loop."""
        if cycle < self._next_cycle and committed < self._next_instruction:
            return
        while self._reverts and self._reverts[0][0] <= cycle:
            self._revert(heapq.heappop(self._reverts))
        while self._by_cycle and self._by_cycle[-1].at_cycle <= cycle:
            self._apply(self._by_cycle.pop(), cycle, committed)
        while (
            self._by_instruction
            and self._by_instruction[-1].at_instruction <= committed
        ):
            self._apply(self._by_instruction.pop(), cycle, committed)
        self._refresh_thresholds()

    def finish(self, cycle: float) -> None:
        """Run every outstanding window-end (end-of-simulation cleanup)."""
        while self._reverts:
            self._revert(heapq.heappop(self._reverts))
        self._refresh_thresholds()

    # ------------------------------------------------------------------
    def _schedule_revert(self, cycle: float, field: str, amount) -> None:
        self._revert_seq += 1
        heapq.heappush(
            self._reverts, (cycle, self._revert_seq, field, amount)
        )

    def _revert(self, entry) -> None:
        """End one window: undo its change to the hierarchy field."""
        _ready, _seq, field, amount = entry
        hierarchy = self.hierarchy
        if field == "dram_latency_extra":
            hierarchy.dram_latency_extra -= amount
        else:
            hierarchy.bus_occupancy_scale /= amount

    def _record(self, event: FaultEvent, cycle: float, committed: int,
                skipped: bool = False, detail: str = "") -> None:
        entry = {
            "kind": event.kind,
            "label": event.label,
            "cycle": int(cycle),
            "instruction": committed,
        }
        if skipped:
            entry["skipped"] = True
        if detail:
            entry["detail"] = detail
        self.log.append(entry)
        if skipped:
            self.faults_skipped += 1
        else:
            self.faults_applied += 1
        if self.obs is not None:
            self.obs.emit(
                "fault",
                cycle,
                fault=event.kind,
                label=event.label,
                detail=detail,
                skipped=skipped,
            )

    def _apply(self, event: FaultEvent, cycle: float, committed: int) -> None:
        runtime = self.runtime
        if event.kind in _RUNTIME_KINDS and runtime is None:
            # The policy runs no Trident runtime; the fault has no target.
            self._record(event, cycle, committed, skipped=True,
                         detail="no Trident runtime under this policy")
            return
        handler = getattr(self, f"_apply_{event.kind}")
        detail = handler(event, cycle)
        self._record(event, cycle, committed, detail=detail or "")

    # ------------------------------------------------------------------
    # Hierarchy faults.
    # ------------------------------------------------------------------
    def _apply_dram_latency(self, event: FaultEvent, cycle: float) -> str:
        extra = int(event.magnitude)
        self.hierarchy.dram_latency_extra += extra
        if event.duration_cycles:
            self._schedule_revert(
                cycle + event.duration_cycles, "dram_latency_extra", extra
            )
            return f"+{extra} cycles for {event.duration_cycles} cycles"
        return f"+{extra} cycles (permanent phase shift)"

    def _apply_bus_contention(self, event: FaultEvent, cycle: float) -> str:
        scale = float(event.magnitude)
        self.hierarchy.bus_occupancy_scale *= scale
        self._schedule_revert(
            cycle + event.duration_cycles, "bus_occupancy_scale", scale
        )
        return f"x{scale:g} occupancy for {event.duration_cycles} cycles"

    def _apply_cache_flush(self, event: FaultEvent, cycle: float) -> str:
        levels = ("l1", "l2", "l3")[: int(event.magnitude)]
        flushed = self.hierarchy.flush_caches(levels)
        return f"flushed {flushed} lines from {'+'.join(levels)}"

    # ------------------------------------------------------------------
    # Trident faults.
    # ------------------------------------------------------------------
    def _apply_dlt_corrupt(self, event: FaultEvent, cycle: float) -> str:
        dlt = self.runtime.dlt
        victims = self._pick_entries(dlt, event.magnitude)
        rng = self.rng
        for entry in victims:
            entry.stride = rng.randrange(-4096, 4097)
            entry.confidence = rng.randrange(0, dlt.config.confidence_max + 1)
            entry.last_addr = None
            entry.total_miss_latency = rng.randrange(0, 1 << 16)
        return f"corrupted {len(victims)} DLT entries"

    def _apply_dlt_evict(self, event: FaultEvent, cycle: float) -> str:
        dlt = self.runtime.dlt
        victims = self._pick_entries(dlt, event.magnitude)
        for entry in victims:
            dlt.evict(entry.tag)
        return f"evicted {len(victims)} DLT entries"

    def _pick_entries(self, dlt, fraction: float):
        entries = dlt.entries()
        if not entries:
            return []
        count = max(1, int(round(len(entries) * fraction)))
        return self.rng.sample(entries, min(count, len(entries)))

    def _apply_dlt_drop_events(self, event: FaultEvent, cycle: float) -> str:
        until = cycle + event.duration_cycles
        runtime = self.runtime
        runtime.drop_dlt_events_until = max(
            runtime.drop_dlt_events_until, until
        )
        return f"dropping delinquent-load events for {event.duration_cycles} cycles"

    def _apply_helper_stall(self, event: FaultEvent, cycle: float) -> str:
        self.runtime.helper.stall(cycle, event.duration_cycles)
        return f"helper descheduled for {event.duration_cycles} cycles"

    def _apply_helper_fail(self, event: FaultEvent, cycle: float) -> str:
        kind = self.runtime.fail_helper_job()
        if kind is None:
            return "helper was idle; nothing to kill"
        return f"killed in-flight helper job ({kind})"
