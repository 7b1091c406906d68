"""Tests for the Markov predictor and Markov-guided stream buffers."""

import random
from collections import OrderedDict

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import MachineConfig, StreamBufferConfig
from repro.hwprefetch.markov import MarkovPredictor
from repro.hwprefetch.stream_buffer import StreamBufferPrefetcher
from repro.memory.hierarchy import MemoryHierarchy


class TestMarkovPredictor:
    def test_learns_transitions(self):
        m = MarkovPredictor(16)
        for block in (0, 64, 512, 64, 512):
            m.train(block)
        assert m.predict(0) == 64
        assert m.predict(64) == 512

    def test_latest_transition_wins(self):
        m = MarkovPredictor(16)
        for block in (0, 64, 0, 128):
            m.train(block)
        assert m.predict(0) == 128

    def test_lru_bounded(self):
        m = MarkovPredictor(entries=4)
        for i in range(20):
            m.train(i * 64)
        assert len(m) <= 4

    def test_self_transition_ignored(self):
        m = MarkovPredictor(4)
        m.train(64)
        m.train(64)
        assert m.predict(64) is None

    def test_requires_positive_entries(self):
        with pytest.raises(ValueError):
            MarkovPredictor(0)


class TestMarkovEvictionOrder:
    """The table is LRU on *use*: training a source refreshes it, and a
    successful prediction refreshes it too.  Eviction must always claim
    the least-recently-used source — these pin that order."""

    def test_oldest_source_evicted_first(self):
        m = MarkovPredictor(entries=3)
        for block in (0, 64, 128, 192, 256):  # sources 0, 64, 128, 192
            m.train(block)
        # Capacity 3: adding source 192 evicted source 0, nothing else.
        assert m.predict(0) is None
        assert m.predict(64) == 128
        assert m.predict(128) == 192
        assert m.predict(192) == 256

    def test_predict_refreshes_recency(self):
        m = MarkovPredictor(entries=2)
        for block in (0, 64, 128):  # table: 0 -> 64, 64 -> 128
            m.train(block)
        assert m.predict(0) == 64  # touch source 0: now MRU
        m.train(192)  # adds 128 -> 192; evicts source 64, NOT source 0
        assert m.predict(0) == 64
        assert m.predict(64) is None

    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(("train", "predict")),
                st.integers(min_value=0, max_value=11).map(lambda i: i * 64),
            ),
            min_size=1,
            max_size=80,
        ),
        entries=st.integers(min_value=1, max_value=5),
    )
    @settings(deadline=None)
    def test_matches_lru_specification(self, ops, entries):
        """Model-based property: against an explicit LRU reference
        (insert/refresh source on train, refresh on predict hit, evict
        oldest past capacity), every prediction and the final table
        contents agree on arbitrary op sequences."""
        m = MarkovPredictor(entries)
        ref: OrderedDict = OrderedDict()
        last = None
        for op, block in ops:
            if op == "train":
                prev, last = last, block
                m.train(block)
                if prev is not None and prev != block:
                    ref[prev] = block
                    ref.move_to_end(prev)
                    while len(ref) > entries:
                        ref.popitem(last=False)
            else:
                expected = ref.get(block)
                if expected is not None:
                    ref.move_to_end(block)
                assert m.predict(block) == expected
        assert len(m) == len(ref)
        for source, target in ref.items():
            assert m.predict(source) == target


class TestMarkovStreamBuffers:
    def make(self, markov_entries):
        machine = MachineConfig()
        config = StreamBufferConfig(markov_entries=markov_entries)
        hier = MemoryHierarchy(machine)
        sb = StreamBufferPrefetcher(config, hier)
        hier.stream_prefetcher = sb
        return hier, sb

    def walk(self, hier, blocks, laps=3, step=500):
        cycle = 0
        for _ in range(laps):
            for block in blocks:
                hier.load(9, block, cycle)
                cycle += step
        return cycle

    def test_disabled_by_default(self):
        hier, sb = self.make(0)
        assert sb.markov is None
        # The Table-1 default config has no Markov table either.
        assert StreamBufferConfig.paper_8x8().markov_entries == 0

    def test_irregular_walk_covered_with_markov(self):
        # The ring must exceed the L1 so laps keep missing.
        rng = random.Random(3)
        blocks = [rng.randrange(1 << 18) * 64 for _ in range(2_500)]
        hier, sb = self.make(4096)
        self.walk(hier, blocks, laps=1)      # train transitions
        before = sb.allocations
        self.walk(hier, blocks, laps=2)      # now predictable
        assert sb.allocations > before        # markov buffers allocated
        assert sb.stream_hits > 0

    def test_irregular_walk_uncovered_without_markov(self):
        rng = random.Random(3)
        blocks = [rng.randrange(1 << 18) * 64 for _ in range(2_500)]
        hier, sb = self.make(0)
        self.walk(hier, blocks, laps=3)
        assert sb.allocations == 0
        assert sb.stream_hits == 0

    def test_markov_training_is_stride_filtered(self):
        hier, sb = self.make(4096)
        addr = 0x100000
        for i in range(60):
            hier.load(9, addr, i * 400)
            addr += 64
        # A pure stride stream must not pollute the Markov table once the
        # stride predictor is confident.
        assert len(sb.markov) < 8
