"""Triangel-style temporal/correlation prefetcher.

A temporal prefetcher in the Triangel mold: a metadata table records,
per cache block, which block the miss stream visited *next* the last
time it was here, guarded by a saturating confidence counter.  Training
is PC-localised (each load PC contributes its own miss sequence, so
interleaved data structures don't scramble each other's successor
links), and prediction is confidence-filtered — an entry must prove
itself repeatedly before it is allowed to prefetch, and chained lookups
extend the prefetch depth only while every hop on the chain stays
confident.

This is the table-based subset of Triangel (metadata table + confidence
filtering); the paper's Markov-filter sizing machinery is out of scope.
Bounded LRU tables, plain-attribute state, no clocks: deterministic and
snapshot-safe like every zoo policy.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

#: Metadata-table entries (successor links).  Triangel keeps its
#: metadata in DRAM, so the table is generously sized; the LRU bound
#: exists to keep snapshots small, not to model SRAM.
TABLE_ENTRIES = 8192
#: Per-PC training contexts (last block seen by each load PC).
TRAINING_ENTRIES = 512
#: Saturating confidence bounds and the prefetch-issue threshold.  A
#: freshly trained link (confidence 1) may prefetch — the classic
#: temporal-streaming behaviour — but a link that *disagreed* decays to
#: 0 and must re-prove itself before issuing again; that decay gate is
#: the Triangel filtering discipline in miniature.
CONFIDENCE_MAX = 3
CONFIDENCE_THRESHOLD = 1
#: Maximum chained prefetch depth while hops stay confident.
CHAIN_DEPTH = 2


class TriangelPrefetcher:
    """Confidence-filtered temporal prefetching over a metadata table."""

    def __init__(
        self,
        hierarchy,
        table_entries: int = TABLE_ENTRIES,
        training_entries: int = TRAINING_ENTRIES,
        chain_depth: int = CHAIN_DEPTH,
    ) -> None:
        self.hierarchy = hierarchy
        self.line_size = hierarchy.l1.line_size
        self.table_entries = table_entries
        self.training_entries = training_entries
        self.chain_depth = chain_depth

        #: block -> [successor block, confidence]; LRU eviction.
        self._table: "OrderedDict[int, list]" = OrderedDict()
        #: pc -> last miss block observed by that pc; LRU eviction.
        self._last_by_pc: "OrderedDict[int, int]" = OrderedDict()

        self.prefetches_issued = 0
        self.entries_trained = 0
        self.predictions_filtered = 0

    # ------------------------------------------------------------------
    def _block(self, addr: int) -> int:
        return addr - (addr % self.line_size)

    def on_demand_load(
        self, pc: int, addr: int, l1_hit: bool, cycle: int
    ) -> None:
        if l1_hit:
            return  # temporal tables train and predict on the miss stream
        block = self._block(addr)
        self._train(pc, block)
        self._predict(block, cycle)

    # ------------------------------------------------------------------
    def _train(self, pc: int, block: int) -> None:
        last_by_pc = self._last_by_pc
        prev = last_by_pc.get(pc)
        last_by_pc[pc] = block
        last_by_pc.move_to_end(pc)
        if len(last_by_pc) > self.training_entries:
            last_by_pc.popitem(last=False)
        if prev is None or prev == block:
            return
        table = self._table
        entry = table.get(prev)
        if entry is None:
            table[prev] = [block, 1]
            self.entries_trained += 1
            if len(table) > self.table_entries:
                table.popitem(last=False)
            return
        table.move_to_end(prev)
        if entry[0] == block:
            if entry[1] < CONFIDENCE_MAX:
                entry[1] += 1
        elif entry[1] > 0:
            # Disagreement decays confidence before the link is allowed
            # to be retargeted — the Triangel filtering discipline.
            entry[1] -= 1
        else:
            entry[0] = block
            entry[1] = 1

    def _predict(self, block: int, cycle: int) -> None:
        table = self._table
        current: Optional[int] = block
        for _hop in range(self.chain_depth):
            entry = table.get(current)
            if entry is None:
                return
            table.move_to_end(current)
            if entry[1] < CONFIDENCE_THRESHOLD:
                self.predictions_filtered += 1
                return
            target = entry[0]
            if self.hierarchy.hardware_prefetch(target, cycle):
                self.prefetches_issued += 1
            current = target
