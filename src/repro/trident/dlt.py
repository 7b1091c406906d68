"""The Delinquent Load Table (DLT) — paper section 3.3.

A 2-way associative, LRU-replaced hardware table, tagged by load PC,
updated on every committed load that belongs to a linked hot trace.  Each
entry tracks, per the paper:

* **access counter** — accesses in the current monitoring window (window
  size N = 256 by default);
* **miss counter** and **total miss latency** — giving the window's miss
  rate and average miss latency;
* **stride state** — last effective address, last stride, and a 4-bit
  confidence counter incremented by 1 on a matching stride and decremented
  by 7 on a mismatch; the load is *stride predictable* at confidence 15;
* **mature flag** — set by the optimizer when a load cannot be (further)
  helped; a mature load never fires events until its entry is evicted.

At the end of a window (access counter reaching N), the load is delinquent
iff its miss counter reached the threshold (8 ⇒ 3% at N=256) *and* its
average miss latency exceeds half the L2-miss latency.  A delinquent load
fires an event; its counters are left in place for the optimizer to read
and are cleared by the helper thread (``clear_window``).  Otherwise the
counters reset and monitoring continues.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..config import DLTConfig


@dataclass
class DLTEntry:
    """One monitored load."""

    tag: int  # load PC
    access_counter: int = 0
    miss_counter: int = 0
    total_miss_latency: int = 0
    stride: int = 0
    confidence: int = 0
    last_addr: Optional[int] = None
    mature: bool = False
    #: An event fired for this window and awaits optimizer processing.
    event_pending: bool = False

    def miss_rate(self) -> float:
        if self.access_counter == 0:
            return 0.0
        return self.miss_counter / self.access_counter

    def average_miss_latency(self) -> float:
        if self.miss_counter == 0:
            return 0.0
        return self.total_miss_latency / self.miss_counter

    def average_access_latency(self, l1_latency: int) -> float:
        """The repair metric of section 3.5.2: hit latency plus the
        window's amortised miss latency."""
        if self.access_counter == 0:
            return float(l1_latency)
        return l1_latency + self.total_miss_latency / self.access_counter


class DelinquentLoadTable:
    """Set-associative table of :class:`DLTEntry`, LRU per set."""

    def __init__(
        self, config: DLTConfig, delinquency_latency_threshold: float
    ) -> None:
        self.config = config
        #: Average miss latency a load must exceed to be delinquent
        #: (half the L2-miss latency in the paper).
        self.latency_threshold = delinquency_latency_threshold
        self._num_sets = max(1, config.entries // config.associativity)
        self._sets: Dict[int, OrderedDict] = {}
        self.evictions = 0
        self.events_fired = 0
        self.windows_evaluated = 0
        #: Observability hook (repro.obs).  ``set_mature`` runs inside
        #: helper-job closures, so its emits use the observer's logical
        #: clock (the job's completion cycle).
        self.obs = None

    # ------------------------------------------------------------------
    def _bucket(self, pc: int) -> OrderedDict:
        index = pc % self._num_sets
        bucket = self._sets.get(index)
        if bucket is None:
            bucket = OrderedDict()
            self._sets[index] = bucket
        return bucket

    def peek(self, pc: int) -> Optional[DLTEntry]:
        """Probe without allocating *or* touching LRU order.

        Observability reads go through here so an attached observer can
        never perturb replacement decisions (enabled and disabled runs
        must stay bit-for-bit identical).
        """
        return self._bucket(pc).get(pc)

    def lookup(self, pc: int) -> Optional[DLTEntry]:
        """Probe without allocating (used by the optimizer)."""
        bucket = self._bucket(pc)
        entry = bucket.get(pc)
        if entry is not None:
            bucket.move_to_end(pc)
        return entry

    def _lookup_or_allocate(self, pc: int) -> DLTEntry:
        bucket = self._bucket(pc)
        entry = bucket.get(pc)
        if entry is not None:
            bucket.move_to_end(pc)
            return entry
        if len(bucket) >= self.config.associativity:
            bucket.popitem(last=False)  # LRU; clears mature with the entry
            self.evictions += 1
        entry = DLTEntry(tag=pc)
        bucket[pc] = entry
        return entry

    # ------------------------------------------------------------------
    def update(
        self, pc: int, addr: int, is_miss: bool, miss_latency: int
    ) -> bool:
        """Record one committed hot-trace load; True when an event fires."""
        # The hit path of _lookup_or_allocate, inline: it runs on every
        # hot-trace load.
        bucket = self._sets.get(pc % self._num_sets)
        entry = bucket.get(pc) if bucket is not None else None
        if entry is None:
            entry = self._lookup_or_allocate(pc)
        else:
            bucket.move_to_end(pc)
        cfg = self.config

        # Stride tracking happens on every access (not just misses).
        if entry.last_addr is not None:
            stride = addr - entry.last_addr
            if stride == entry.stride:
                entry.confidence = min(
                    cfg.confidence_max, entry.confidence + cfg.confidence_up
                )
            else:
                entry.confidence = max(
                    0, entry.confidence - cfg.confidence_down
                )
                entry.stride = stride
        entry.last_addr = addr

        if entry.event_pending:
            # Window counters stay frozen until the helper thread clears
            # them (paper section 3.3).  The event is re-offered: the
            # runtime may have been unable to service it when it first
            # fired (helper busy, trace being optimized).
            return True

        entry.access_counter += 1
        if is_miss:
            entry.miss_counter += 1
            entry.total_miss_latency += miss_latency

        if entry.access_counter < cfg.access_window:
            return False

        # End of the monitoring window: evaluate delinquency.
        self.windows_evaluated += 1
        delinquent = (
            not entry.mature
            and entry.miss_counter >= cfg.miss_threshold
            and entry.average_miss_latency() > self.latency_threshold
        )
        if delinquent:
            entry.event_pending = True
            self.events_fired += 1
            return True
        # Not delinquent: reset and re-examine over the next window.
        self._reset_window(entry)
        return False

    @staticmethod
    def _reset_window(entry: DLTEntry) -> None:
        entry.access_counter = 0
        entry.miss_counter = 0
        entry.total_miss_latency = 0

    # ------------------------------------------------------------------
    # Optimizer-side operations.
    # ------------------------------------------------------------------
    def clear_window(self, pc: int) -> None:
        """Helper thread finished with this load: restart its window."""
        entry = self.lookup(pc)
        if entry is not None:
            self._reset_window(entry)
            entry.event_pending = False

    def evict(self, pc: int) -> bool:
        """Forcibly evict a load's entry (fault injection's eviction
        storm); True when an entry was dropped.  Indistinguishable from a
        capacity eviction: monitoring state and the mature flag are lost."""
        bucket = self._bucket(pc)
        if bucket.pop(pc, None) is None:
            return False
        self.evictions += 1
        return True

    def set_mature(self, pc: int) -> None:
        entry = self.lookup(pc)
        if entry is not None:
            newly = not entry.mature
            entry.mature = True
            entry.event_pending = False
            self._reset_window(entry)
            obs = self.obs
            if obs is not None and newly:
                obs.emit("mature", None, pc=pc)

    def is_stride_predictable(self, pc: int) -> bool:
        """True when the 4-bit confidence counter is saturated (15)."""
        entry = self.lookup(pc)
        return (
            entry is not None
            and entry.confidence >= self.config.confidence_max
        )

    def predicted_stride(self, pc: int) -> Optional[int]:
        entry = self.lookup(pc)
        if (
            entry is not None
            and entry.confidence >= self.config.confidence_max
            and entry.stride != 0
        ):
            return entry.stride
        return None

    def is_delinquent_now(self, pc: int) -> bool:
        """Partial-window delinquency check (section 3.4.1): when the
        optimizer scans a trace's other loads, a load part-way through its
        window is judged on its current counters, pro-rated."""
        entry = self.lookup(pc)
        if entry is None or entry.mature or entry.access_counter == 0:
            return False
        cfg = self.config
        required = cfg.miss_threshold * (
            entry.access_counter / cfg.access_window
        )
        # Require at least one miss so the latency average is meaningful.
        if entry.miss_counter < max(1.0, required):
            return False
        return entry.average_miss_latency() > self.latency_threshold

    # ------------------------------------------------------------------
    def entries(self) -> List[DLTEntry]:
        """All live entries (testing / statistics)."""
        result: List[DLTEntry] = []
        for bucket in self._sets.values():
            result.extend(bucket.values())
        return result
