"""Set-associative cache with LRU replacement and prefetch metadata.

Two pieces of metadata exist purely for the paper's Figure 6 accounting:

* each line remembers whether it was installed by a prefetch and has not
  yet been demand-referenced (``prefetched`` + ``prefetch_source``), so the
  first demand touch can be classified *Hit-prefetched*;
* when a prefetch install evicts a line, the victim's block address is
  logged, so a later miss on that block can be classified *Miss due to
  prefetching*.
"""

from __future__ import annotations

from array import array
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional

from ..config import CacheConfig
from .stats import PrefetchSource


@dataclass
class CacheLine:
    """Per-line metadata (the data itself lives in DataMemory)."""

    block: int
    prefetched: bool = False
    prefetch_source: Optional[PrefetchSource] = None


#: Per-line metadata byte for the packed pickle form (__getstate__):
#: bit 2 = prefetched, bits 0-1 = prefetch source.
_SOURCE_CODE = {None: 0, PrefetchSource.SOFTWARE: 1,
                PrefetchSource.STREAM_BUFFER: 2}
_SOURCE_DECODE = {code: source for source, code in _SOURCE_CODE.items()}


class SetAssociativeCache:
    """One cache level.  Addresses are byte addresses; state is per-block."""

    #: How many prefetch-displaced victim tags to remember.
    DISPLACED_LOG_LIMIT = 4096

    def __init__(self, config: CacheConfig, name: str = "cache") -> None:
        self.config = config
        self.name = name
        self.num_sets = config.num_sets
        self.line_size = config.line_size
        # Power-of-two geometry (the common case) lets the hot paths use
        # mask/shift arithmetic — identical values to the %-based math
        # for every int, including negatives (Python's // and % floor,
        # and so do >> and &-with-mask on two's-complement bigints).
        line = self.line_size
        nsets = self.num_sets
        self._pow2 = (
            line > 0 and (line & (line - 1)) == 0
            and nsets > 0 and (nsets & (nsets - 1)) == 0
        )
        self._block_mask = ~(line - 1)
        self._line_shift = line.bit_length() - 1
        self._set_mask = nsets - 1
        # set index -> OrderedDict[block -> CacheLine]; last item is MRU.
        self._sets: Dict[int, OrderedDict] = {}
        #: Block addresses evicted by a prefetch install, awaiting a
        #: possible re-miss (bounded FIFO via OrderedDict).
        self._displaced_by_prefetch: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    # Pickle support.  A populated cache holds tens of thousands of
    # CacheLine objects; serialised generically they dominate snapshot
    # capture time.  The packed form stores each set as (index, block
    # array, metadata bytes) — value-deterministic, LRU order preserved
    # by column position.  Empty buckets are dropped and sets are sorted
    # by index: both are behaviourally invisible (``install`` recreates
    # buckets on demand, nothing iterates ``_sets`` in an order-sensitive
    # way) and make the bytes canonical across different histories.
    # ------------------------------------------------------------------
    def __getstate__(self):
        state = dict(self.__dict__)
        packed = []
        for index in sorted(self._sets):
            bucket = self._sets[index]
            if not bucket:
                continue
            blocks = array("q", bucket.keys()).tobytes()
            metas = bytes(
                (line.prefetched << 2) | _SOURCE_CODE[line.prefetch_source]
                for line in bucket.values()
            )
            packed.append((index, blocks, metas))
        state["_sets"] = packed
        state["_displaced_by_prefetch"] = array(
            "q", self._displaced_by_prefetch.keys()
        ).tobytes()
        return state

    def __setstate__(self, state):
        # Replace the packed entries in place (not pop-and-reassign):
        # the instance-dict key order is part of the canonical snapshot
        # bytes and must survive a restore round trip unchanged.
        sets: Dict[int, OrderedDict] = {}
        for index, blocks, metas in state["_sets"]:
            bucket = OrderedDict()
            for block, meta in zip(array("q", blocks), metas):
                bucket[block] = CacheLine(
                    block=block,
                    prefetched=bool(meta & 4),
                    prefetch_source=_SOURCE_DECODE[meta & 3],
                )
            sets[index] = bucket
        state["_sets"] = sets
        state["_displaced_by_prefetch"] = OrderedDict(
            (block, True)
            for block in array("q", state["_displaced_by_prefetch"])
        )
        self.__dict__.update(state)

    # ------------------------------------------------------------------
    def block_of(self, addr: int) -> int:
        if self._pow2:
            return addr & self._block_mask
        return addr - (addr % self.line_size)

    def _set_index(self, block: int) -> int:
        if self._pow2:
            return (block >> self._line_shift) & self._set_mask
        return (block // self.line_size) % self.num_sets

    # ------------------------------------------------------------------
    def lookup(self, addr: int, touch: bool = True) -> Optional[CacheLine]:
        """Return the line holding ``addr``, updating LRU and hit counters.

        With ``touch=False`` the lookup is a pure probe: no LRU update, no
        counter change (used by the hierarchy when classifying).
        """
        if self._pow2:
            block = addr & self._block_mask
            index = (block >> self._line_shift) & self._set_mask
        else:
            block = addr - (addr % self.line_size)
            index = (block // self.line_size) % self.num_sets
        bucket = self._sets.get(index)
        line = bucket.get(block) if bucket is not None else None
        if line is None:
            if touch:
                self.misses += 1
            return None
        if touch:
            self.hits += 1
            bucket.move_to_end(block)
        return line

    def contains(self, addr: int) -> bool:
        """Pure membership probe, no side effects."""
        if self._pow2:
            block = addr & self._block_mask
            index = (block >> self._line_shift) & self._set_mask
        else:
            block = addr - (addr % self.line_size)
            index = (block // self.line_size) % self.num_sets
        bucket = self._sets.get(index)
        return bucket is not None and block in bucket

    def install(
        self,
        addr: int,
        prefetched: bool = False,
        source: Optional[PrefetchSource] = None,
    ) -> Optional[int]:
        """Bring the block containing ``addr`` in; return any victim block.

        When the block is already present, its prefetch metadata is left
        alone (a prefetch of a resident line is useless and changes
        nothing).
        """
        if self._pow2:
            block = addr & self._block_mask
            index = (block >> self._line_shift) & self._set_mask
        else:
            block = addr - (addr % self.line_size)
            index = (block // self.line_size) % self.num_sets
        bucket = self._sets.get(index)
        if bucket is None:
            bucket = self._sets[index] = OrderedDict()
        elif block in bucket:
            bucket.move_to_end(block)
            return None
        victim_block = None
        if len(bucket) >= self.config.associativity:
            victim_block, _victim_line = bucket.popitem(last=False)
            self.evictions += 1
            if prefetched:
                self._log_displacement(victim_block)
        bucket[block] = CacheLine(
            block=block, prefetched=prefetched, prefetch_source=source
        )
        return victim_block

    def flush(self) -> int:
        """Drop every resident line (context-switch / fault injection);
        returns how many lines were dropped.  Statistics survive; the
        prefetch-displacement log does not (its tags are meaningless once
        the whole cache has turned over)."""
        dropped = self.resident_blocks
        self._sets.clear()
        self._displaced_by_prefetch.clear()
        return dropped

    def invalidate(self, addr: int) -> bool:
        """Drop the block containing ``addr``; True if it was present."""
        block = self.block_of(addr)
        bucket = self._sets.get(self._set_index(block), {})
        return bucket.pop(block, None) is not None

    # ------------------------------------------------------------------
    # Figure-6 displacement bookkeeping.
    # ------------------------------------------------------------------
    def _log_displacement(self, block: int) -> None:
        log = self._displaced_by_prefetch
        log[block] = True
        log.move_to_end(block)
        while len(log) > self.DISPLACED_LOG_LIMIT:
            log.popitem(last=False)

    def consume_displaced_tag(self, addr: int) -> bool:
        """True when a miss on ``addr`` matches a prefetch-displaced tag.

        The tag is consumed: each displacement explains at most one miss,
        matching the paper's "record the tag so that we can identify a
        *Miss due to prefetching* if a subsequent miss matches".
        """
        return (
            self._displaced_by_prefetch.pop(self.block_of(addr), None)
            is not None
        )

    # ------------------------------------------------------------------
    @property
    def resident_blocks(self) -> int:
        return sum(len(bucket) for bucket in self._sets.values())
