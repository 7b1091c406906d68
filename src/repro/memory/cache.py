"""Set-associative cache with LRU replacement and prefetch metadata.

The cache owns line geometry.  A line size must be a power of two
(``CacheConfig`` checks it); the set count need not be.  A block is
``addr & _block_mask`` and its set is ``(block >> _line_shift) %
num_sets``, and the hierarchy and stream buffers use the L1's fields for
their own block arithmetic.

Each set is an ``OrderedDict`` of block address -> one metadata byte,
least recently used first.  The byte exists purely for the paper's
Figure 6 accounting: ``0`` for a demand line, ``PREFETCHED |
SOURCE_CODE[source]`` for a line a prefetch installed and no demand load
has touched yet, so the first demand touch can be classified
*Hit-prefetched* (``lookup``, or the hierarchy's inlined L1 hit, then
writes ``0`` in place; a store hit leaves the byte alone).  When a
prefetch install evicts a line, the victim's block address is logged,
so a later miss on that block can be classified *Miss due to
prefetching*.
"""

from __future__ import annotations

from array import array
from collections import OrderedDict
from itertools import chain
from typing import Dict, Optional

from ..config import CacheConfig
from .stats import PrefetchSource

#: Metadata byte of an untouched prefetched line: bit 2 is set, bits 0-1
#: carry the prefetch source's code.
PREFETCHED = 4
SOURCE_CODE = {None: 0, PrefetchSource.SOFTWARE: 1,
               PrefetchSource.STREAM_BUFFER: 2}


class SetAssociativeCache:
    """One cache level.  Addresses are byte addresses; state is per-block."""

    #: How many prefetch-displaced victim tags to remember.
    DISPLACED_LOG_LIMIT = 4096

    def __init__(self, config: CacheConfig, name: str = "cache") -> None:
        self.config = config
        self.name = name
        self.num_sets = config.num_sets
        self.line_size = config.line_size
        # The one block/set rule (module docstring); the hierarchy and
        # the stream buffers read the L1's copies.
        self._block_mask = ~(self.line_size - 1)
        self._line_shift = self.line_size.bit_length() - 1
        # set index -> OrderedDict[block -> metadata byte]; last item
        # is MRU.
        self._sets: Dict[int, OrderedDict] = {}
        #: Block addresses evicted by a prefetch install, awaiting a
        #: possible re-miss (bounded FIFO via OrderedDict).
        self._displaced_by_prefetch: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    # Pickle support.  A populated cache holds tens of thousands of
    # lines; pickled set by set they dominate snapshot capture time.  The
    # packed form is four bytes objects for the whole level: set indices,
    # per-set line counts, blocks in LRU order and their metadata bytes.
    # Sets are sorted by index: nothing iterates ``_sets`` in an
    # order-sensitive way, and it makes the bytes canonical across
    # different histories.  No bucket is ever empty (lines leave a set
    # only by eviction, which makes room for one, or by ``flush``).
    # ------------------------------------------------------------------
    def __getstate__(self):
        state = dict(self.__dict__)
        sets = self._sets
        indices = sorted(sets)
        buckets = [sets[index] for index in indices]
        state["_sets"] = (
            array("q", indices).tobytes(),
            array("q", map(len, buckets)).tobytes(),
            array("q", chain.from_iterable(buckets)).tobytes(),
            bytes(chain.from_iterable(map(OrderedDict.values, buckets))),
        )
        state["_displaced_by_prefetch"] = array(
            "q", self._displaced_by_prefetch.keys()
        ).tobytes()
        return state

    def __setstate__(self, state):
        # Replace the packed entries in place (not pop-and-reassign):
        # the instance-dict key order is part of the canonical snapshot
        # bytes and must survive a restore round trip unchanged.
        indices, counts, blocks, metas = state["_sets"]
        blocks = array("q", blocks)
        sets: Dict[int, OrderedDict] = {}
        start = 0
        for index, count in zip(array("q", indices), array("q", counts)):
            end = start + count
            sets[index] = OrderedDict(zip(blocks[start:end], metas[start:end]))
            start = end
        state["_sets"] = sets
        state["_displaced_by_prefetch"] = OrderedDict(
            (block, True)
            for block in array("q", state["_displaced_by_prefetch"])
        )
        self.__dict__.update(state)

    # ------------------------------------------------------------------
    def block_of(self, addr: int) -> int:
        return addr & self._block_mask

    # ------------------------------------------------------------------
    def lookup(self, addr: int) -> Optional[int]:
        """Return the metadata byte of the line holding ``addr`` (None on
        a miss), updating LRU and hit counters.

        A lookup is a demand load's: it also clears the byte of a
        prefetched line in place (its first demand touch), which keeps
        the line's LRU position.  ``contains`` is the side-effect-free
        probe.
        """
        block = addr & self._block_mask
        index = (block >> self._line_shift) % self.num_sets
        bucket = self._sets.get(index)
        meta = bucket.get(block) if bucket is not None else None
        if meta is None:
            self.misses += 1
            return None
        self.hits += 1
        bucket.move_to_end(block)
        if meta:
            bucket[block] = 0
        return meta

    def contains(self, addr: int) -> bool:
        """Pure membership probe, no side effects."""
        block = addr & self._block_mask
        index = (block >> self._line_shift) % self.num_sets
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
        block = addr & self._block_mask
        index = (block >> self._line_shift) % self.num_sets
        bucket = self._sets.get(index)
        if bucket is None:
            bucket = self._sets[index] = OrderedDict()
        elif block in bucket:
            bucket.move_to_end(block)
            return None
        victim_block = None
        if len(bucket) >= self.config.associativity:
            victim_block, _victim_meta = bucket.popitem(last=False)
            self.evictions += 1
            if prefetched:
                self._log_displacement(victim_block)
        bucket[block] = PREFETCHED | SOURCE_CODE[source] if prefetched else 0
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
