"""Differential test: the stream buffers' fused probe loop and the
hierarchy's inlined L1 path against a copy of the code they replaced.

``_ReferenceStreamBuffers`` keeps the per-probe structure the fused loop
folded away: ``_issue_next`` walks up to eight candidates and asks the
hierarchy's ``hardware_prefetch`` about each one, ``_top_up`` calls it
until it stops issuing, and the stride predictor is trained and queried
through its methods.  ``_ReferenceHierarchy`` keeps the method-call
``load``/``software_prefetch`` and builds a fresh ``LoadOutcome`` per
miss.  Hypothesis drives both pairs with the same random demand stream
on two real hierarchies and requires the same fills, in the same order
and at the same cycles, and identical state afterwards.

The example budget scales with ``REPRO_FUZZ_EXAMPLES`` like the scenario
fuzz (CI runs 200; the local default keeps the suite fast).
"""

from __future__ import annotations

import dataclasses
import os

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.config import MachineConfig, StreamBufferConfig
from repro.hwprefetch.stream_buffer import (
    StreamBufferPrefetcher,
    _StreamBuffer,
)
from repro.memory.cache import PREFETCHED, SOURCE_CODE
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.stats import LoadOutcome, OutcomeKind, PrefetchSource

MAX_EXAMPLES = int(os.environ.get("REPRO_FUZZ_EXAMPLES", "25"))

LINE = 64

#: Prefetch source by the code in an L1 line's metadata byte.
_SOURCE_OF = {code: source for source, code in SOURCE_CODE.items()}


# ---------------------------------------------------------------------------
# Reference copies of the replaced code.
# ---------------------------------------------------------------------------
class _RecordingHierarchy(MemoryHierarchy):
    """Logs every fill started, in order, as (block, cycle, latency,
    prefetched, source): demand misses start theirs without going
    through ``start_fill``."""

    def __init__(self, config):
        super().__init__(config)
        self.fills = []

    def _begin_fill(self, block, cycle, latency, prefetched, source):
        self.fills.append((block, cycle, latency, prefetched, source))
        return super()._begin_fill(block, cycle, latency, prefetched, source)


class _ReferenceHierarchy(_RecordingHierarchy):
    """``load``, ``store`` and ``software_prefetch`` as they were before
    their L1 probes were inlined and miss outcomes were interned; a full
    miss probes L2 and L3 again in ``start_fill``, as it did before it
    passed the latency on."""

    def load(self, pc, addr, cycle):
        heap = self._pending_heap
        if heap and heap[0][0] <= cycle:
            self.drain(cycle)
        outcome = self._reference_classify(addr, cycle)
        self.stats.record(outcome)
        prefetcher = self.stream_prefetcher
        if prefetcher is not None:
            kind = outcome.kind
            prefetcher.on_demand_load(
                pc,
                addr,
                kind is OutcomeKind.HIT or kind is OutcomeKind.HIT_PREFETCHED,
                cycle,
            )
        return outcome

    def _reference_classify(self, addr, cycle):
        l1_latency = self.config.l1.latency
        l1 = self.l1
        meta = l1.lookup(addr)
        if meta is not None:
            if meta & PREFETCHED:
                source = _SOURCE_OF[meta & ~PREFETCHED]
                return LoadOutcome(
                    OutcomeKind.HIT_PREFETCHED, l1_latency, "l1", source
                )
            return LoadOutcome(OutcomeKind.HIT, l1_latency, "l1")
        block = self.block_of(addr)
        fill = self._pending.get(block)
        if fill is not None:
            remaining = max(l1_latency, fill.ready - cycle)
            if fill.prefetched and not fill.touched:
                fill.touched = True
                if remaining <= l1_latency:
                    return LoadOutcome(
                        OutcomeKind.HIT_PREFETCHED, l1_latency, "l1",
                        fill.source,
                    )
                return LoadOutcome(
                    OutcomeKind.PARTIAL_HIT, remaining, "inflight",
                    fill.source,
                )
            if remaining <= l1_latency:
                return LoadOutcome(OutcomeKind.HIT, l1_latency, "l1")
            return LoadOutcome(OutcomeKind.MISS, remaining, "inflight")
        if self.l2.lookup(addr) is not None:
            level, latency = "l2", self.config.l2.latency
        elif self.l3.lookup(addr) is not None:
            level, latency = "l3", self.config.l3.latency
        else:
            level, latency = "mem", self.config.memory_latency
        fill = self.start_fill(addr, cycle, prefetched=False)
        latency = max(latency, fill.ready - cycle)
        if self.l1.consume_displaced_tag(addr):
            return LoadOutcome(
                OutcomeKind.MISS_DUE_TO_PREFETCH, latency, level
            )
        return LoadOutcome(OutcomeKind.MISS, latency, level)

    def store(self, addr, cycle):
        heap = self._pending_heap
        if heap and heap[0][0] <= cycle:
            self.drain(cycle)
        self.stats.stores += 1
        l1 = self.l1
        if l1.contains(addr):
            # ``lookup`` as it was for a store: count the hit and move
            # the line to MRU (re-installing a resident block does only
            # that), leaving a prefetched line's byte alone.
            l1.hits += 1
            l1.install(addr)
            return
        l1.misses += 1
        if self.block_of(addr) not in self._pending:
            self.l3.install(addr)
            self.l2.install(addr)
            l1.install(addr)

    def software_prefetch(self, addr, cycle):
        heap = self._pending_heap
        if heap and heap[0][0] <= cycle:
            self.drain(cycle)
        self.stats.software_prefetches_issued += 1
        if self.l1.contains(addr) or self.block_of(addr) in self._pending:
            self.stats.software_prefetches_useless += 1
            return False
        self.start_fill(
            addr, cycle, prefetched=True, source=PrefetchSource.SOFTWARE
        )
        return True


class _ReferenceStreamBuffers(StreamBufferPrefetcher):
    """The per-probe stream buffers the fused ``_fill`` loop replaced."""

    def __init__(self, config, hierarchy):
        super().__init__(config, hierarchy)
        self.line_size = LINE
        self._pow2 = LINE > 0 and (LINE & (LINE - 1)) == 0

    def _block_of(self, addr):
        if self._pow2:
            return addr & self._block_mask
        return addr - (addr % self.line_size)

    def _issue_next(self, buffer, cycle):
        for _ in range(8):
            addr = buffer.next_addr
            if addr is None:
                return
            if buffer.markov:
                buffer.next_addr = self.markov.predict(self._block_of(addr))
            else:
                buffer.next_addr += buffer.stride
            block = self._block_of(addr)
            if block in buffer.blocks or block in self._block_map:
                continue
            if not self.hierarchy.hardware_prefetch(addr, cycle):
                continue
            self.prefetches_issued += 1
            buffer.blocks.append(block)
            self._block_map[block] = buffer
            return

    def _top_up(self, buffer, cycle):
        while len(buffer.blocks) < self.config.entries_per_buffer:
            before = len(buffer.blocks)
            self._issue_next(buffer, cycle)
            if len(buffer.blocks) == before:
                break

    def on_demand_load(self, pc, addr, l1_hit, cycle):
        self._clock += 1
        self.predictor.update(pc, addr)
        block = self._block_of(addr)
        buffer = self._block_map.get(block)
        if buffer is not None:
            self.stream_hits += 1
            buffer.last_use = self._clock
            index = buffer.blocks.index(block)
            for consumed in buffer.blocks[: index + 1]:
                self._block_map.pop(consumed, None)
            del buffer.blocks[: index + 1]
            self._top_up(buffer, cycle)
            return
        if l1_hit:
            return
        if self.markov is not None and self.predictor.predict(pc) is None:
            self.markov.train(block)
        self._reference_allocate(pc, addr, cycle)

    def _reference_allocate(self, pc, addr, cycle):
        stride = self.predictor.predict(
            pc, min_confidence=self.config.allocation_confidence
        )
        markov_next = None
        if stride is None:
            if self.markov is not None:
                markov_next = self.markov.predict(self._block_of(addr))
            if markov_next is None:
                return
        slot = None
        for i, buffer in enumerate(self._buffers):
            if buffer is None:
                slot = i
                break
        if slot is None:
            slot, oldest = 0, self._buffers[0].last_use
            for i, buffer in enumerate(self._buffers):
                if buffer.last_use < oldest:
                    slot, oldest = i, buffer.last_use
            for stale in self._buffers[slot].blocks:
                self._block_map.pop(stale, None)
        if stride is not None:
            new = _StreamBuffer(pc=pc, stride=stride, next_addr=addr + stride)
        else:
            new = _StreamBuffer(
                pc=pc, stride=0, next_addr=markov_next, markov=True
            )
        new.last_use = self._clock
        self._buffers[slot] = new
        self.allocations += 1
        self._top_up(new, cycle)


# ---------------------------------------------------------------------------
# State capture.
# ---------------------------------------------------------------------------
def _prefetcher_state(sb):
    slots = {id(buffer): i for i, buffer in enumerate(sb._buffers)}
    markov = sb.markov
    return {
        "buffers": [
            None if b is None else
            (b.pc, b.stride, b.next_addr, list(b.blocks), b.last_use,
             b.markov)
            for b in sb._buffers
        ],
        # Owners by slot, in insertion order (dict order is snapshot
        # bytes).
        "block_map": [
            (block, slots[id(owner)]) for block, owner in sb._block_map.items()
        ],
        "predictor": [
            dataclasses.astuple(entry) for entry in sb.predictor._table
        ],
        "predictor_counts": (sb.predictor.updates, sb.predictor.replacements),
        "markov": None if markov is None else (
            list(markov._table.items()), markov._last_block,
            markov.trained, markov.predictions,
        ),
        "counters": (sb._clock, sb.allocations, sb.stream_hits,
                     sb.prefetches_issued),
    }


def _hierarchy_state(hier):
    stats = hier.stats
    return {
        "fills": hier.fills,
        "stats": [
            (name, list(value.items()) if isinstance(value, dict) else value)
            for name, value in vars(stats).items()
        ],
        "caches": [
            (cache.__getstate__(), cache.hits, cache.misses, cache.evictions)
            for cache in (hier.l1, hier.l2, hier.l3)
        ],
        "pending": sorted(
            (block, fill.ready, fill.prefetched, fill.source, fill.touched)
            for block, fill in hier._pending.items()
        ),
        "bus_free": hier._bus_free,
    }


def _build(hierarchy_cls, prefetcher_cls, machine, sb_config):
    hier = hierarchy_cls(machine)
    hier.stream_prefetcher = prefetcher_cls(sb_config, hier)
    return hier


# ---------------------------------------------------------------------------
# Demand streams.
# ---------------------------------------------------------------------------
#: Mixed strides: sub-line (several steps per block), line, multi-line,
#: negative, page-sized and zero.
STRIDES = (8, 24, 64, 64, 128, 192, -64, -8, 4096, 0)

#: A stream walks its footprint and wraps, as a loop over an array
#: does, so lines come back after the small caches evicted them.
_streams = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=5),        # pc (few: repeats)
        st.integers(min_value=0, max_value=3),        # region (overlaps)
        st.sampled_from(STRIDES),
        st.sampled_from((1 << 12, 1 << 14, 1 << 16, 1 << 20)),  # footprint
    ),
    min_size=1,
    max_size=6,
)

_ops = st.lists(
    st.tuples(
        st.sampled_from(("load", "load", "load", "random", "swpf",
                         "store")),
        st.integers(min_value=0, max_value=5),        # stream index
        st.integers(min_value=1, max_value=400),      # cycle gap
        st.integers(min_value=0, max_value=1 << 20),  # random address
        st.integers(min_value=1, max_value=24),       # loads in a burst
    ),
    min_size=10,
    max_size=80,
)

_configs = st.tuples(
    st.sampled_from(((4, 4), (8, 8))),
    st.sampled_from((0, 16, 256)),                    # markov entries
    st.sampled_from((2, 1, 3)),                       # allocation conf.
    st.sampled_from((1024, 8)),                       # predictor entries
    st.sampled_from(("table1", "odd_sets", "tiny", "tiny_odd_sets")),
)

#: L1/L2/L3 capacities in KB.  Table 1, then a 384-set L1 (the non-power-
#: of-two index path), then caches small enough that buffered and
#: refilled lines get evicted and LRU order matters.
GEOMETRIES = {
    "table1": (64, 512, 4096),
    "odd_sets": (48, 512, 4096),
    "tiny": (4, 16, 64),
    "tiny_odd_sets": (3, 24, 96),
}


def _machine(geometry):
    """Table 1 with the cache capacities of ``geometry`` (associativity,
    latency and line size unchanged)."""
    base = MachineConfig()
    l1_kb, l2_kb, l3_kb = GEOMETRIES[geometry]
    return dataclasses.replace(
        base,
        l1=dataclasses.replace(base.l1, size_bytes=l1_kb * 1024),
        l2=dataclasses.replace(base.l2, size_bytes=l2_kb * 1024),
        l3=dataclasses.replace(base.l3, size_bytes=l3_kb * 1024),
    )


def _drive(pairs, streams, ops):
    """Apply one op sequence to every hierarchy; outcomes must agree."""
    offsets = [0] * len(streams)
    cycle = 0
    for kind, which, gap, raw, burst in ops:
        index = which % len(streams)
        pc, region, stride, footprint = streams[index]
        base = 0x1000 + region * 0x10000
        if kind == "load":
            # A burst of one stream's loads builds stride confidence and
            # runs into (or past) its buffer.
            for _ in range(burst):
                cycle += gap
                addr = base + offsets[index]
                offsets[index] = (offsets[index] + stride) % footprint
                results = [hier.load(100 + pc, addr, cycle)
                           for hier in pairs]
                assert results[0] == results[1], (addr, cycle)
            continue
        cycle += gap
        if kind == "random":
            results = [hier.load(200 + pc, raw * 8, cycle) for hier in pairs]
        elif kind == "swpf":
            # Cover one of the stream's next lines, as a software
            # prefetch running ahead of the buffers would (or, for a
            # burst of 1-2, a line it already loaded).
            target = base + offsets[index] + stride * (burst % 8 - 2)
            results = [hier.software_prefetch(target, cycle)
                       for hier in pairs]
        else:
            results = [hier.store(raw * 8, cycle) for hier in pairs]
        assert results[0] == results[1], (kind, cycle)


def _assert_same(new, ref):
    assert new.fills == ref.fills
    assert (
        _prefetcher_state(new.stream_prefetcher)
        == _prefetcher_state(ref.stream_prefetcher)
    )
    assert _hierarchy_state(new) == _hierarchy_state(ref)


@settings(
    max_examples=MAX_EXAMPLES,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(configs=_configs, streams=_streams, ops=_ops)
def test_fused_probe_loop_matches_reference(configs, streams, ops):
    (buffers, entries), markov, confidence, table, geometry = configs
    sb_config = StreamBufferConfig(
        num_buffers=buffers,
        entries_per_buffer=entries,
        history_table_entries=table,
        allocation_confidence=confidence,
        markov_entries=markov,
    )
    machine = _machine(geometry)
    new = _build(_RecordingHierarchy, StreamBufferPrefetcher, machine,
                 sb_config)
    ref = _build(_ReferenceHierarchy, _ReferenceStreamBuffers, machine,
                 sb_config)
    _drive([new, ref], streams, ops)
    _assert_same(new, ref)


def test_allocate_on_almost_every_miss():
    """The swim/basic shape: software prefetches keep the stream's next
    lines in flight, so almost every demand miss allocates a buffer whose
    eight probes all skip."""
    machine = MachineConfig()
    pairs = [
        _build(_RecordingHierarchy, StreamBufferPrefetcher, machine,
               machine.stream_buffers),
        _build(_ReferenceHierarchy, _ReferenceStreamBuffers, machine,
               machine.stream_buffers),
    ]
    cycle = 0
    for i in range(2_000):
        addr = 0x400000 + i * LINE
        for hier in pairs:
            for ahead in range(1, 9):
                hier.software_prefetch(addr + ahead * LINE, cycle)
        cycle += 3
        outcomes = [hier.load(7, addr, cycle) for hier in pairs]
        assert outcomes[0] == outcomes[1]
        # Well under the memory latency per eight lines: the demand
        # stream catches its prefetches in flight (partial hits).
        cycle += 20
    new, ref = pairs
    _assert_same(new, ref)
    sb = new.stream_prefetcher
    # The pattern does what it is for: many allocations, few fills.
    assert sb.allocations > 1_500
    assert sb.prefetches_issued < sb.allocations // 10


@settings(
    max_examples=MAX_EXAMPLES,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    geometry=st.sampled_from(("tiny", "tiny_odd_sets")),
    ops=st.lists(
        st.tuples(
            st.sampled_from(("load", "store", "store", "swpf")),
            st.integers(min_value=0, max_value=96 * LINE - 1),
            st.integers(min_value=1, max_value=400),   # cycle gap
        ),
        min_size=60,
        max_size=200,
    ),
)
def test_inlined_store_probe_matches_reference(geometry, ops):
    """Stores over a footprint 1.5 to 2 times the tiny L1s: they hit,
    miss and reorder LRU sets, so the inlined probe's counters and LRU
    touches must match the reference's.  Software prefetches put
    prefetched lines in the way: a store hit must leave their bytes
    for the next load to classify."""
    machine = _machine(geometry)
    new, ref = _RecordingHierarchy(machine), _ReferenceHierarchy(machine)
    cycle = 0
    for kind, addr, gap in ops:
        cycle += gap
        if kind == "store":
            assert new.store(addr, cycle) == ref.store(addr, cycle)
        elif kind == "swpf":
            assert (new.software_prefetch(addr, cycle)
                    == ref.software_prefetch(addr, cycle))
        else:
            assert new.load(1, addr, cycle) == ref.load(1, addr, cycle)
    assert new.fills == ref.fills
    assert _hierarchy_state(new) == _hierarchy_state(ref)
