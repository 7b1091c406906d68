"""Tests for the hardware stride predictor and stream buffers."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import MachineConfig, StreamBufferConfig
from repro.hwprefetch.stride_predictor import StridePredictor
from repro.hwprefetch.stream_buffer import StreamBufferPrefetcher
from repro.memory.hierarchy import MemoryHierarchy

PAGE = 4096


class TestStridePredictor:
    def test_learns_constant_stride(self):
        sp = StridePredictor(64)
        addr = 0x1000
        for _ in range(4):
            sp.update(5, addr)
            addr += 64
        assert sp.predict(5) == 64

    def test_no_prediction_below_confidence(self):
        sp = StridePredictor(64)
        sp.update(5, 0x1000)
        sp.update(5, 0x1040)
        assert sp.predict(5) is None

    def test_zero_stride_never_predicted(self):
        sp = StridePredictor(64)
        for _ in range(8):
            sp.update(5, 0x1000)
        assert sp.predict(5) is None

    def test_stride_change_relearns(self):
        sp = StridePredictor(64)
        addr = 0x1000
        for _ in range(6):
            sp.update(5, addr)
            addr += 64
        for _ in range(10):
            sp.update(5, addr)
            addr += 128
        assert sp.predict(5) == 128

    def test_conflicting_pcs_replace(self):
        sp = StridePredictor(4)
        sp.update(1, 0x1000)
        sp.update(5, 0x2000)  # same slot (5 % 4 == 1)
        assert sp.replacements == 1
        assert sp.confidence_of(1) == 0

    def test_requires_positive_entries(self):
        with pytest.raises(ValueError):
            StridePredictor(0)


class TestNegativeStrideAliasing:
    """The table is direct-mapped on ``pc % entries``: colliding PCs
    replace each other.  Negative strides (descending array walks) are
    first-class and must survive — or be cleanly forgotten across — the
    aliasing corner."""

    ENTRIES = 64

    @given(
        stride=st.sampled_from((-8, -64, -96, -4096)),
        pc=st.integers(min_value=0, max_value=10_000),
    )
    @settings(deadline=None)
    def test_negative_stride_learned(self, stride, pc):
        sp = StridePredictor(self.ENTRIES)
        addr = 1 << 24
        for _ in range(5):
            sp.update(pc, addr)
            addr += stride
        assert sp.predict(pc) == stride

    @given(
        pc=st.integers(min_value=0, max_value=1_000),
        collisions=st.integers(min_value=1, max_value=4),
    )
    @settings(deadline=None)
    def test_alias_evicts_trained_negative_stride(self, pc, collisions):
        sp = StridePredictor(self.ENTRIES)
        addr = 1 << 24
        for _ in range(5):
            sp.update(pc, addr)
            addr -= 64
        assert sp.predict(pc) == -64
        alias = pc + collisions * self.ENTRIES  # same slot, different tag
        sp.update(alias, 0x5000)
        # The slot now belongs to the alias: no stale negative-stride
        # prediction may leak for either PC.
        assert sp.predict(pc) is None
        assert sp.confidence_of(pc) == 0
        assert sp.predict(alias) is None  # fresh entry, zero confidence
        assert sp.replacements == 1

    @given(
        pc=st.integers(min_value=0, max_value=1_000),
        stride_a=st.sampled_from((-64, -128, 64)),
        stride_b=st.sampled_from((-32, 32, 96)),
        rounds=st.integers(min_value=2, max_value=12),
    )
    @settings(deadline=None)
    def test_pingpong_aliasing_never_predicts(
        self, pc, stride_a, stride_b, rounds
    ):
        """Two PCs fighting over one slot: each update replaces the
        other's entry, so confidence never builds and neither PC may
        ever produce a (necessarily stale) prediction."""
        sp = StridePredictor(self.ENTRIES)
        alias = pc + self.ENTRIES
        addr_a, addr_b = 1 << 24, 1 << 25
        for _ in range(rounds):
            sp.update(pc, addr_a)
            sp.update(alias, addr_b)
            assert sp.predict(pc) is None
            assert sp.predict(alias) is None
            addr_a += stride_a
            addr_b += stride_b
        assert sp.replacements == 2 * rounds - 1


class TestStreamBuffers:
    def make(self, num=4, entries=4):
        machine = MachineConfig()
        hier = MemoryHierarchy(machine)
        sb = StreamBufferPrefetcher(
            StreamBufferConfig(num_buffers=num, entries_per_buffer=entries),
            hier,
        )
        hier.stream_prefetcher = sb
        return hier, sb

    def train(self, hier, pc, start, stride, count, cycle=0, step=50):
        addr = start
        for i in range(count):
            hier.load(pc, addr, cycle + i * step)
            addr += stride
        return addr

    def test_allocation_after_confidence(self):
        hier, sb = self.make()
        self.train(hier, pc=7, start=0x100000, stride=64, count=6)
        assert sb.allocations >= 1
        assert sb.prefetches_issued >= 1

    def test_stream_hits_accumulate(self):
        hier, sb = self.make()
        self.train(hier, pc=7, start=0x100000, stride=64, count=30,
                   step=400)
        assert sb.stream_hits > 5

    def test_prefetched_lines_get_installed(self):
        hier, sb = self.make()
        self.train(hier, pc=7, start=0x100000, stride=64, count=10,
                   step=500)
        hier.drain(100_000)
        # The stream ran ahead: lines beyond the demand point are resident.
        assert hier.l1.contains(0x100000 + 11 * 64)

    def test_buffer_count_limits_streams(self):
        hier2, sb2 = self.make(num=2, entries=4)
        hier8, sb8 = self.make(num=8, entries=4)
        # Six interleaved streams: the 2-buffer config must thrash.
        for h, sb in ((hier2, sb2), (hier8, sb8)):
            cycle = 0
            for i in range(40):
                for s in range(6):
                    h.load(100 + s, 0x100000 + s * 0x100000 + i * 64, cycle)
                    cycle += 60
        assert sb8.stream_hits > sb2.stream_hits

    def test_small_stride_skips_within_line(self):
        hier, sb = self.make()
        # stride 8: consecutive entries must still be distinct blocks.
        self.train(hier, pc=7, start=0x100000, stride=8, count=80, step=30)
        for buffer in sb._buffers:
            if buffer is not None:
                assert len(buffer.blocks) == len(set(buffer.blocks))

    def test_no_allocation_for_random_pattern(self):
        import random

        rng = random.Random(1)
        hier, sb = self.make()
        for i in range(60):
            hier.load(9, rng.randrange(1 << 22) * 64, i * 50)
        assert sb.allocations == 0

    def test_allocation_across_page_boundary(self):
        hier, sb = self.make()
        # Start two blocks shy of a page edge: the stream buffer's
        # run-ahead crosses into the next page immediately.  Stream
        # buffers are physical-stream devices — no page clamp.
        start = 0x200000 + PAGE - 2 * 64
        self.train(hier, pc=7, start=start, stride=64, count=8)
        assert sb.allocations >= 1
        blocks = [
            b for buf in sb._buffers if buf is not None for b in buf.blocks
        ]
        assert blocks, "stream must be running ahead"
        assert any(b >= 0x200000 + PAGE for b in blocks), (
            "run-ahead stopped at the page boundary"
        )
        assert len(blocks) == len(set(blocks))

    @given(stride=st.sampled_from((PAGE - 64, PAGE, PAGE + 64, 2 * PAGE)))
    @settings(deadline=None)
    def test_page_sized_strides_allocate_clean_streams(self, stride):
        """Strides at or beyond a page: every prefetch lands in a new
        page, each buffer entry is a distinct block, and the stream's
        stride survives the page crossings unchanged."""
        hier, sb = self.make()
        self.train(hier, pc=11, start=0x400000 + PAGE - 64, stride=stride,
                   count=10)
        assert sb.allocations >= 1
        streams = [b for b in sb._buffers if b is not None and not b.markov]
        assert streams
        for buf in streams:
            assert buf.stride == stride
            assert len(buf.blocks) == len(set(buf.blocks))
            for block in buf.blocks:
                assert block % 64 == 0
