"""Stride-predictor-guided stream buffers (the paper's hardware baseline).

Architecture follows Sherwood et al.'s predictor-directed stream buffers as
summarised in the paper's Table 1: N buffers of M entries each, allocated
on misses when a PC-indexed stride predictor is confident, each buffer
running ahead of the demand stream by up to M cache blocks.

We model buffer storage by routing prefetched blocks through the shared
:class:`~repro.memory.hierarchy.MemoryHierarchy` fill machinery: a block a
buffer has requested is a pending fill until it arrives, then sits in the
L1 with its prefetched bit set.  A demand load that catches up with the
stream therefore sees either a prefetched hit or a partial hit with the
remaining latency — the same timing a hardware buffer hit would give,
without a second storage pool.  DESIGN.md records this simplification, and
§5c″ the per-load probe loop, which reads the hierarchy's state directly.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..config import StreamBufferConfig
from ..errors import ConfigError
from ..memory.stats import PrefetchSource
from .markov import MarkovPredictor
from .stride_predictor import StridePredictor, _StrideEntry

#: Probes one top-up may spend without issuing before it gives up.
_PROBE_LIMIT = 8

#: Bound once: a class read of an Enum member is a descriptor call on
#: CPython 3.11 (DESIGN.md §5c‴).
_STREAM_BUFFER = PrefetchSource.STREAM_BUFFER


class _StreamBuffer:
    """One stream: a stride (or Markov walk), pending blocks."""

    __slots__ = ("pc", "stride", "next_addr", "blocks", "last_use", "markov")

    def __init__(
        self, pc: int, stride: int, next_addr: int, markov: bool = False
    ) -> None:
        self.pc = pc
        self.stride = stride
        self.next_addr = next_addr
        #: Blocks requested and not yet consumed, oldest first.
        self.blocks: List[int] = []
        self.last_use = 0
        #: True when the stream follows Markov transitions, not a stride.
        self.markov = markov


class StreamBufferPrefetcher:
    """N×M stream buffers with confidence-gated allocation."""

    def __init__(
        self,
        config: StreamBufferConfig,
        hierarchy,
        line_size: int = 64,
    ) -> None:
        if line_size != hierarchy.l1.line_size:
            raise ConfigError(
                f"stream buffers need the L1 line size "
                f"({hierarchy.l1.line_size}), got {line_size}"
            )
        self.config = config
        self.hierarchy = hierarchy
        self.line_size = line_size
        self.predictor = StridePredictor(config.history_table_entries)
        self.markov: Optional[MarkovPredictor] = (
            MarkovPredictor(config.markov_entries)
            if config.markov_entries > 0
            else None
        )
        self._buffers: List[Optional[_StreamBuffer]] = [
            None for _ in range(config.num_buffers)
        ]
        # Power-of-two line sizes (the common case) get mask arithmetic
        # on the per-load hot path; identical values to the %-based form.
        self._pow2 = line_size > 0 and (line_size & (line_size - 1)) == 0
        self._block_mask = ~(line_size - 1)
        #: block address -> owning buffer, for O(1) demand probes.
        self._block_map: Dict[int, _StreamBuffer] = {}
        self._clock = 0
        self.allocations = 0
        self.stream_hits = 0
        self.prefetches_issued = 0

    # ------------------------------------------------------------------
    def _fill(self, buffer: _StreamBuffer, cycle: int) -> None:
        """Top ``buffer`` up to its entry count, one fill per new block.

        A step is skipped when its block is in this or another buffer
        (tiny strides land in the current one), in flight, or resident
        in the L1 (e.g. a software prefetch got there first), so entries
        are only spent on real outstanding fetches.  The checks run
        cheapest first.  ``_PROBE_LIMIT`` skips in a row, or a Markov
        walk out of recorded transitions, stop the top-up short.
        """
        blocks = buffer.blocks
        room = self.config.entries_per_buffer - len(blocks)
        hierarchy = self.hierarchy
        pending = hierarchy._pending
        l1 = hierarchy.l1
        l1_sets, l1_pow2 = l1._sets, l1._pow2
        line_shift, set_mask = l1._line_shift, l1._set_mask
        pow2, block_mask, line = self._pow2, self._block_mask, self.line_size
        block_map = self._block_map
        markov = self.markov if buffer.markov else None
        stride = buffer.stride
        addr = buffer.next_addr
        probes = _PROBE_LIMIT
        while room > 0 and probes and addr is not None:
            block = addr & block_mask if pow2 else addr - addr % line
            probe = addr
            addr = addr + stride if markov is None else markov.predict(block)
            if (
                block in blocks or block in block_map or block in pending
                or (block in l1_sets.get((block >> line_shift) & set_mask, ())
                    if l1_pow2 else l1.contains(block))
            ):
                probes -= 1
                continue
            hierarchy.stats.hardware_prefetches_issued += 1
            hierarchy.start_fill(probe, cycle, True, _STREAM_BUFFER)
            self.prefetches_issued += 1
            blocks.append(block)
            block_map[block] = buffer
            room -= 1
            probes = _PROBE_LIMIT
        buffer.next_addr = addr

    # ------------------------------------------------------------------
    def on_demand_load(
        self, pc: int, addr: int, l1_hit: bool, cycle: int
    ) -> None:
        """Hook invoked by the hierarchy on every demand load."""
        self._clock += 1
        # StridePredictor.update, in place on the entry.
        predictor = self.predictor
        predictor.updates += 1
        entry = predictor._table[pc % predictor.entries]
        if entry.valid and entry.tag == pc:
            stride = addr - entry.last_addr
            if stride == entry.stride:
                if entry.confidence < predictor.CONFIDENCE_MAX:
                    entry.confidence += 1
            elif entry.confidence > 0:
                entry.confidence -= 1
            else:
                entry.stride = stride
        else:
            predictor.replacements += entry.valid
            entry.tag, entry.stride, entry.confidence = pc, 0, 0
            entry.valid = True
        entry.last_addr = addr
        block = (
            addr & self._block_mask if self._pow2
            else addr - addr % self.line_size
        )
        buffer = self._block_map.get(block)
        if buffer is not None:
            # The demand stream caught up with this buffer — whether the
            # prefetched line has already landed (an L1 hit) or is still
            # in flight (a partial hit), the stream advances.
            self.stream_hits += 1
            buffer.last_use = self._clock
            # Consume this block and everything older (skipped entries).
            blocks = buffer.blocks
            index = blocks.index(block) + 1
            for consumed in blocks[:index]:
                self._block_map.pop(consumed, None)
            del blocks[:index]
            self._fill(buffer, cycle)
            return
        if l1_hit:
            return
        # Stride-filtered Markov training: only misses the stride
        # predictor cannot explain (StridePredictor.predict's default
        # confidence) feed the transition table.
        if self.markov is not None and (
            entry.confidence < 2 or entry.stride == 0
        ):
            self.markov.train(block)
        self._maybe_allocate(pc, addr, block, entry, cycle)

    def _maybe_allocate(
        self, pc: int, addr: int, block: int, entry: _StrideEntry,
        cycle: int,
    ) -> None:
        """``entry`` is the PC's just-trained stride-predictor entry."""
        if (
            entry.confidence >= self.config.allocation_confidence
            and entry.stride != 0
        ):
            stride = entry.stride
            new = _StreamBuffer(pc=pc, stride=stride, next_addr=addr + stride)
        else:
            markov_next = (
                self.markov.predict(block) if self.markov is not None
                else None
            )
            if markov_next is None:
                return
            new = _StreamBuffer(
                pc=pc, stride=0, next_addr=markov_next, markov=True
            )
        # Replace the LRU buffer (empty slots first; ties go to the
        # lowest index).
        buffers = self._buffers
        stale = buffers[0]
        for buffer in buffers:
            if buffer is None:
                stale = None
                break
            if buffer.last_use < stale.last_use:
                stale = buffer
        if stale is None:
            slot = buffers.index(None)
        else:
            slot = buffers.index(stale)
            for block in stale.blocks:
                self._block_map.pop(block, None)
        new.last_use = self._clock
        buffers[slot] = new
        self.allocations += 1
        self._fill(new, cycle)
