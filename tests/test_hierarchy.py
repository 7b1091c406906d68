"""Tests for the memory hierarchy: timing, fills, Figure-6 classification."""

import pytest

from repro.config import MachineConfig
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.stats import OutcomeKind, PrefetchSource


@pytest.fixture
def hier():
    return MemoryHierarchy(MachineConfig())


class TestDemandLoads:
    def test_cold_miss_goes_to_memory(self, hier):
        out = hier.load(pc=1, addr=0x10000, cycle=0)
        assert out.kind is OutcomeKind.MISS
        assert out.level == "mem"
        assert out.latency >= hier.config.memory_latency

    def test_hit_after_fill_completes(self, hier):
        hier.load(1, 0x10000, 0)
        out = hier.load(1, 0x10000, 1000)
        assert out.kind is OutcomeKind.HIT
        assert out.latency == hier.config.l1.latency

    def test_demand_merge_is_miss_with_remaining_latency(self, hier):
        first = hier.load(1, 0x10000, 0)
        second = hier.load(2, 0x10008, 100)
        assert second.kind is OutcomeKind.MISS
        assert second.latency < first.latency
        assert second.level == "inflight"

    def test_nearly_complete_merge_counts_as_hit(self, hier):
        first = hier.load(1, 0x10000, 0)
        ready = first.latency
        out = hier.load(2, 0x10008, ready - 1)
        assert out.kind is OutcomeKind.HIT

    def test_l2_hit_latency(self, hier):
        hier.load(1, 0x10000, 0)
        hier.drain(10_000)
        # Evict from L1 by filling its set (L1: 512 sets, 2-way).
        way_stride = 512 * 64
        hier.load(1, 0x10000 + way_stride, 20_000)
        hier.load(1, 0x10000 + 2 * way_stride, 30_000)
        hier.drain(40_000)
        out = hier.load(1, 0x10000, 50_000)
        assert out.level == "l2"
        assert out.latency >= hier.config.l2.latency

    def test_load_synthetic_not_recorded(self, hier):
        hier.load_synthetic(0x10000, 0)
        assert hier.stats.total_loads == 0

    def test_stats_recorded(self, hier):
        hier.load(1, 0x10000, 0)
        hier.load(1, 0x10000, 10_000)
        assert hier.stats.total_loads == 2
        assert hier.stats.outcomes[OutcomeKind.MISS] == 1
        assert hier.stats.outcomes[OutcomeKind.HIT] == 1


class TestSoftwarePrefetch:
    def test_prefetch_then_timely_load_is_prefetched_hit(self, hier):
        assert hier.software_prefetch(0x10000, 0)
        hier.drain(1000)
        out = hier.load(1, 0x10000, 1000)
        assert out.kind is OutcomeKind.HIT_PREFETCHED
        assert out.prefetch_source is PrefetchSource.SOFTWARE

    def test_second_touch_is_plain_hit(self, hier):
        hier.software_prefetch(0x10000, 0)
        hier.drain(1000)
        hier.load(1, 0x10000, 1000)
        out = hier.load(1, 0x10000, 1001)
        assert out.kind is OutcomeKind.HIT

    def test_late_load_is_partial_hit(self, hier):
        hier.software_prefetch(0x10000, 0)
        out = hier.load(1, 0x10000, 100)
        assert out.kind is OutcomeKind.PARTIAL_HIT
        assert 0 < out.latency < hier.config.memory_latency

    def test_prefetch_of_resident_line_is_useless(self, hier):
        hier.load(1, 0x10000, 0)
        hier.drain(1000)
        assert not hier.software_prefetch(0x10000, 1000)
        assert hier.stats.software_prefetches_useless == 1

    def test_prefetch_of_inflight_line_is_useless(self, hier):
        hier.software_prefetch(0x10000, 0)
        assert not hier.software_prefetch(0x10008, 1)

    def test_touched_fill_installs_without_prefetch_bit(self, hier):
        hier.software_prefetch(0x10000, 0)
        hier.load(1, 0x10000, 5)          # partial hit: consumes first touch
        hier.drain(10_000)
        out = hier.load(1, 0x10000, 10_000)
        assert out.kind is OutcomeKind.HIT


class TestDisplacement:
    def test_miss_due_to_prefetch(self, hier):
        # Fill one L1 set (2 ways), then prefetch a third line into it.
        way_stride = 512 * 64
        hier.load(1, 0x10000, 0)
        hier.load(1, 0x10000 + way_stride, 1)
        hier.drain(10_000)
        hier.software_prefetch(0x10000 + 2 * way_stride, 10_000)
        hier.drain(20_000)
        # One of the two resident lines was displaced by the prefetch.
        victims = [
            a
            for a in (0x10000, 0x10000 + way_stride)
            if not hier.l1.contains(a)
        ]
        assert len(victims) == 1
        out = hier.load(1, victims[0], 30_000)
        assert out.kind is OutcomeKind.MISS_DUE_TO_PREFETCH


class TestBusAndFills:
    def test_bus_serialises_fills(self, hier):
        first = hier.load(1, 0x10000, 0)
        second = hier.load(2, 0x20000, 0)
        # Independent lines, same cycle: the second fill waits for the bus.
        assert second.latency >= first.latency + hier.config.bus_transfer_cycles

    def test_store_allocates_without_stall(self, hier):
        hier.store(0x10000, 0)
        out = hier.load(1, 0x10000, 1)
        assert out.kind is OutcomeKind.HIT
        assert hier.stats.stores == 1

    def test_inclusive_install(self, hier):
        hier.load(1, 0x10000, 0)
        hier.drain(10_000)
        assert hier.l1.contains(0x10000)
        assert hier.l2.contains(0x10000)
        assert hier.l3.contains(0x10000)
