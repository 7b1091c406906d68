"""Three-level cache hierarchy with in-flight fill tracking.

The hierarchy is the timing oracle of the simulation: for every demand load
it answers "how many cycles until the data is here", and it classifies each
access in the paper's Figure-6 vocabulary (hit / hit-prefetched / partial
hit / miss / miss-due-to-prefetch).

Fills (demand misses, software prefetches, and stream-buffer prefetches)
are all modelled uniformly as *pending fills*: a block plus the cycle its
data arrives.  A demand load that finds its block's fill in flight pays the
remaining latency — that is exactly the paper's *partial prefetch hit*, and
it is what the self-repairing optimizer's distance search reduces.  Fills
serialise on a shared bus (``bus_transfer_cycles`` apart), so prefetching
too aggressively delays demand traffic — one of the two costs (with cache
displacement) that make over-long prefetch distances lose.

The optional ``stream_prefetcher`` (see :mod:`repro.hwprefetch`) is invoked
on every demand load; it may start further fills through
:meth:`MemoryHierarchy.start_fill`.  DESIGN.md §5c″ describes the per-load
fast path.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

from ..config import MachineConfig
from .cache import PREFETCHED, SOURCE_CODE, SetAssociativeCache
from .stats import LoadOutcome, MemoryStats, OutcomeKind, PrefetchSource

#: Enum members the per-load paths read, bound once (DESIGN.md §5c‴).
_HIT = OutcomeKind.HIT
_HIT_PF = OutcomeKind.HIT_PREFETCHED
_PARTIAL = OutcomeKind.PARTIAL_HIT
_MISS = OutcomeKind.MISS
_MISS_PF = OutcomeKind.MISS_DUE_TO_PREFETCH
_SOFTWARE = PrefetchSource.SOFTWARE
_STREAM_BUFFER = PrefetchSource.STREAM_BUFFER

#: Interned miss-side outcomes by their field values.  Module-level, not
#: instance state: a snapshot pickles the hierarchy, and a table that
#: grows with the run would change its bytes.
_OUTCOMES: Dict[tuple, LoadOutcome] = {}


def _outcome(*fields) -> LoadOutcome:
    outcome = _OUTCOMES.get(fields)
    if outcome is None:
        if len(_OUTCOMES) >= 4096:  # fig5 cells intern a few hundred
            _OUTCOMES.clear()
        outcome = _OUTCOMES[fields] = LoadOutcome(*fields)
    return outcome


class _PendingFill:
    """One in-flight cache-line fill."""

    __slots__ = ("block", "ready", "prefetched", "source", "touched")

    def __init__(
        self,
        block: int,
        ready: int,
        prefetched: bool,
        source: Optional[PrefetchSource],
    ) -> None:
        self.block = block
        self.ready = ready
        self.prefetched = prefetched
        self.source = source
        #: A demand access already consumed the "first touch" while the
        #: fill was in flight (so the installed line is no longer counted
        #: as an untouched prefetch).
        self.touched = False


class MemoryHierarchy:
    """L1/L2/L3 + DRAM with pending-fill timing and Figure-6 accounting."""

    def __init__(
        self,
        config: MachineConfig,
        stream_prefetcher: Optional[object] = None,
    ) -> None:
        self.config = config
        self.l1 = SetAssociativeCache(config.l1, "l1")
        self.l2 = SetAssociativeCache(config.l2, "l2")
        self.l3 = SetAssociativeCache(config.l3, "l3")
        self.stats = MemoryStats()
        #: Injected by the simulation when the policy enables hardware
        #: prefetching; duck-typed (see repro.hwprefetch.stream_buffer).
        self.stream_prefetcher = stream_prefetcher

        self._pending: Dict[int, _PendingFill] = {}
        self._pending_heap: List[Tuple[int, int]] = []
        self._bus_free = 0

        # L1-hit outcomes are value objects with a handful of distinct
        # values; interning them saves a frozen-dataclass construction
        # (four object.__setattr__ calls) on the most common load path.
        # ``_outcome_hit`` is indexed by the line's metadata byte (0, a
        # plain hit, or PREFETCHED | source code); ``_outcome_hit_pf`` by
        # an in-flight fill's prefetch source.
        l1_latency = config.l1.latency
        hit_pf = {
            src: LoadOutcome(OutcomeKind.HIT_PREFETCHED, l1_latency, "l1", src)
            for src in SOURCE_CODE
        }
        hits = [None] * (PREFETCHED + len(SOURCE_CODE))
        hits[0] = LoadOutcome(OutcomeKind.HIT, l1_latency, "l1")
        for src, code in SOURCE_CODE.items():
            hits[PREFETCHED | code] = hit_pf[src]
        self._outcome_hit = tuple(hits)
        self._outcome_hit_pf = hit_pf

        # Observability hook (repro.obs): None costs one attribute check
        # on the hot paths; attach_observer wires the emit sites.
        self.obs = None
        self._m_load_latency = None
        self._m_fills = None

        # Fault-injection hooks (see repro.faults.injector): extra cycles
        # charged to every DRAM-sourced fill, and a multiplier on fill-bus
        # occupancy.  Both are neutral by default and only ever set by a
        # FaultInjector.
        self.dram_latency_extra = 0
        self.bus_occupancy_scale = 1.0
        self.lines_flushed = 0

    # ------------------------------------------------------------------
    # Observability.
    # ------------------------------------------------------------------
    def attach_observer(self, obs) -> None:
        """Wire the emit hooks; instruments are cached so the enabled
        hot path pays one dict-free method call per event."""
        from ..obs.metrics import LOAD_LATENCY_BUCKETS

        self.obs = obs
        self._m_load_latency = obs.metrics.histogram(
            "memory.load_latency", LOAD_LATENCY_BUCKETS
        )
        self._m_fills = obs.metrics.counter("memory.fills_started")

    # ------------------------------------------------------------------
    # Fill plumbing.
    # ------------------------------------------------------------------
    def block_of(self, addr: int) -> int:
        return addr & self.l1._block_mask

    def start_fill(
        self,
        addr: int,
        cycle: int,
        prefetched: bool,
        source: Optional[PrefetchSource] = None,
    ) -> _PendingFill:
        """Begin fetching the block containing ``addr``.

        Returns the (possibly pre-existing) pending fill.  A second request
        for an in-flight block merges into the first (MSHR behaviour); a
        demand request upgrades a prefetch fill's priority only in the
        sense that classification later sees ``prefetched`` of the original
        fill, which is what the paper's partial-hit accounting wants.
        The supplying level is found with touch-free probes: the LRU
        update happens when the fill installs.
        """
        block = self.block_of(addr)
        existing = self._pending.get(block)
        if existing is not None:
            return existing
        if self.l2.contains(addr):
            latency = self.config.l2.latency
        elif self.l3.contains(addr):
            latency = self.config.l3.latency
        else:
            latency = self.config.memory_latency + self.dram_latency_extra
        return self._begin_fill(block, cycle, latency, prefetched, source)

    def _begin_fill(
        self,
        block: int,
        cycle: int,
        latency: int,
        prefetched: bool,
        source: Optional[PrefetchSource],
    ) -> _PendingFill:
        """Start a fill of ``block``, which is not in flight, from a level
        ``latency`` cycles away."""
        # Only fills sourced from DRAM occupy the shared memory bus
        # (Table 1's bus occupancy); on-chip L2/L3 transfers do not.
        if latency >= self.config.memory_latency:
            issue = max(cycle, self._bus_free)
            occupancy = self.config.bus_transfer_cycles
            if self.bus_occupancy_scale != 1.0:
                occupancy = max(1, round(occupancy * self.bus_occupancy_scale))
            self._bus_free = issue + occupancy
        else:
            issue = cycle
        fill = _PendingFill(block, issue + latency, prefetched, source)
        self._pending[block] = fill
        heapq.heappush(self._pending_heap, (fill.ready, block))
        obs = self.obs
        if obs is not None:
            self._m_fills.inc()
            if latency >= self.config.memory_latency:
                level = "mem"
            elif latency == self.config.l3.latency:
                level = "l3"
            else:
                level = "l2"
            obs.emit(
                "fill",
                cycle,
                block=block,
                level=level,
                ready=fill.ready,
                prefetched=prefetched,
                source=source.value if source is not None else None,
            )
        return fill

    def drain(self, cycle: int) -> None:
        """Install every fill whose data has arrived by ``cycle``."""
        heap = self._pending_heap
        while heap and heap[0][0] <= cycle:
            ready, block = heapq.heappop(heap)
            fill = self._pending.get(block)
            if fill is None or fill.ready != ready:
                continue  # stale heap entry
            del self._pending[block]
            self._install(fill)

    def _install(self, fill: _PendingFill) -> None:
        """Install a completed fill into all levels (inclusive)."""
        self.l3.install(fill.block)
        self.l2.install(fill.block)
        untouched_prefetch = fill.prefetched and not fill.touched
        self.l1.install(
            fill.block,
            prefetched=untouched_prefetch,
            source=fill.source if untouched_prefetch else None,
        )

    def flush_caches(self, levels: Tuple[str, ...] = ("l1", "l2", "l3")) -> int:
        """Invalidate every line in the named levels (fault injection's
        context-switch model); returns the number of lines dropped.

        In-flight fills are untouched — they were requested before the
        switch and still install when their data arrives.
        """
        flushed = 0
        for name in levels:
            if name not in ("l1", "l2", "l3"):
                raise ValueError(f"unknown cache level {name!r}")
            flushed += getattr(self, name).flush()
        self.lines_flushed += flushed
        return flushed

    # ------------------------------------------------------------------
    # Demand accesses.
    # ------------------------------------------------------------------
    def load(self, pc: int, addr: int, cycle: int) -> LoadOutcome:
        """Perform a demand load; classify it and return its timing.

        The L1 hit, the common case, is resolved inline (the lookup of
        ``SetAssociativeCache.lookup``): the first demand touch of a
        prefetched line clears its metadata byte in place, which keeps
        its LRU position.  Misses go through ``_classify_miss``.
        """
        heap = self._pending_heap
        if heap and heap[0][0] <= cycle:
            self.drain(cycle)
        l1 = self.l1
        block = addr & l1._block_mask
        bucket = l1._sets.get((block >> l1._line_shift) % l1.num_sets)
        meta = bucket.get(block) if bucket is not None else None
        if meta is not None:
            l1.hits += 1
            bucket.move_to_end(block)
            if meta:
                bucket[block] = 0
            outcome = self._outcome_hit[meta]
            l1_hit = True
        else:
            l1.misses += 1
            outcome = self._classify_miss(addr, cycle)
            kind = outcome.kind
            l1_hit = kind is _HIT or kind is _HIT_PF
        self.stats.record(outcome)
        if self.obs is not None:
            self._m_load_latency.observe(outcome.latency)
        prefetcher = self.stream_prefetcher
        if prefetcher is not None:
            prefetcher.on_demand_load(pc, addr, l1_hit, cycle)
        return outcome

    def _classify_miss(self, addr: int, cycle: int) -> LoadOutcome:
        """Classify a load whose L1 lookup missed: a merge with an
        in-flight fill, or a full miss that starts one."""
        l1_latency = self.config.l1.latency
        block = self.block_of(addr)
        fill = self._pending.get(block)
        if fill is not None:
            remaining = max(l1_latency, fill.ready - cycle)
            if fill.prefetched and not fill.touched:
                fill.touched = True
                if remaining <= l1_latency:
                    # The prefetch fully covered the latency: the data is
                    # effectively here — a prefetched hit, not a partial.
                    return self._outcome_hit_pf[fill.source]
                return _outcome(_PARTIAL, remaining, "inflight", fill.source)
            # Merge with an earlier access to the same in-flight line
            # (MSHR behaviour).  A near-complete fill is an effective hit.
            if remaining <= l1_latency:
                return self._outcome_hit[0]
            return _outcome(_MISS, remaining, "inflight")

        # Full miss: find the supplying level (one probe each) and start
        # the fill from it.
        if self.l2.lookup(addr) is not None:
            level, latency, extra = "l2", self.config.l2.latency, 0
        elif self.l3.lookup(addr) is not None:
            level, latency, extra = "l3", self.config.l3.latency, 0
        else:
            level, latency = "mem", self.config.memory_latency
            extra = self.dram_latency_extra
        fill = self._begin_fill(block, cycle, latency + extra, False, None)
        latency = max(latency, fill.ready - cycle)
        if self.l1.consume_displaced_tag(addr):
            return _outcome(_MISS_PF, latency, level)
        return _outcome(_MISS, latency, level)

    def load_synthetic(self, addr: int, cycle: int) -> LoadOutcome:
        """A load inserted by the optimizer (the non-faulting dereference
        of section 3.4.3).

        It has real timing and moves real lines, but it is not a program
        load: it is excluded from Figure-6 statistics and does not train
        the hardware prefetcher.  Its L1 hit clears a prefetched line's
        metadata byte as ``load`` does.
        """
        heap = self._pending_heap
        if heap and heap[0][0] <= cycle:
            self.drain(cycle)
        meta = self.l1.lookup(addr)
        if meta is None:
            return self._classify_miss(addr, cycle)
        return self._outcome_hit[meta]

    def store(self, addr: int, cycle: int) -> None:
        """Perform a demand store.

        Stores retire through a store buffer and never stall the model; a
        store miss allocates the line (write-allocate) without timing.
        The L1 probe is inlined as in ``load``: a store hit counts and
        moves the line to MRU, but unlike a touching ``lookup`` it leaves
        a prefetched line's metadata byte alone.
        """
        heap = self._pending_heap
        if heap and heap[0][0] <= cycle:
            self.drain(cycle)
        self.stats.stores += 1
        l1 = self.l1
        block = addr & l1._block_mask
        bucket = l1._sets.get((block >> l1._line_shift) % l1.num_sets)
        if bucket is not None and block in bucket:
            l1.hits += 1
            bucket.move_to_end(block)
            return
        l1.misses += 1
        if block not in self._pending:
            self.l3.install(addr)
            self.l2.install(addr)
            l1.install(addr)

    # ------------------------------------------------------------------
    # Prefetch entry points.
    # ------------------------------------------------------------------
    def software_prefetch(self, addr: int, cycle: int) -> bool:
        """Issue a software prefetch; True when a new fill was started."""
        heap = self._pending_heap
        if heap and heap[0][0] <= cycle:
            self.drain(cycle)
        stats = self.stats
        stats.software_prefetches_issued += 1
        l1 = self.l1
        block = addr & l1._block_mask
        if (
            block in l1._sets.get((block >> l1._line_shift) % l1.num_sets, ())
            or block in self._pending
        ):
            stats.software_prefetches_useless += 1
            return False
        self.start_fill(addr, cycle, prefetched=True, source=_SOFTWARE)
        return True

    def hardware_prefetch(self, addr: int, cycle: int) -> bool:
        """Issue a hardware prefetch; True when a fill was started.

        The zoo engines' entry point.  The stream buffers run the same
        checks inline in their probe loop (DESIGN.md §5c″).
        """
        if self.block_of(addr) in self._pending or self.l1.contains(addr):
            return False
        self.stats.hardware_prefetches_issued += 1
        self.start_fill(addr, cycle, prefetched=True, source=_STREAM_BUFFER)
        return True
