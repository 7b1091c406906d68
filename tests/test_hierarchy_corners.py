"""Corner cases of the memory hierarchy and its prefetcher coupling."""

import pytest

from repro.config import MachineConfig, StreamBufferConfig
from repro.hwprefetch.stream_buffer import StreamBufferPrefetcher
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.stats import OutcomeKind


@pytest.fixture
def hier():
    return MemoryHierarchy(MachineConfig())


class TestFillBusRules:
    def test_l2_sourced_fill_skips_bus(self, hier):
        # Warm a line into L2/L3, evict from L1, then re-fetch: the fill
        # must not inherit bus queueing delay from unrelated DRAM fills.
        hier.load(1, 0x10000, 0)
        hier.drain(1_000)
        way = 512 * 64
        hier.load(1, 0x10000 + way, 1_000)
        hier.load(1, 0x10000 + 2 * way, 1_001)
        hier.drain(10_000)
        # Saturate the bus with DRAM prefetches.
        for i in range(20):
            hier.software_prefetch(0x900000 + i * 64, 10_000)
        out = hier.load(1, 0x10000, 10_001)
        assert out.level == "l2"
        # An L2 hit costs its latency, not the DRAM queue.
        assert out.latency <= hier.config.l2.latency + 1

    def test_dram_fills_queue_on_bus(self, hier):
        outs = [
            hier.load(1, 0x800000 + i * 64, 0) for i in range(4)
        ]
        latencies = [o.latency for o in outs]
        assert latencies == sorted(latencies)
        spread = latencies[-1] - latencies[0]
        assert spread >= 3 * hier.config.bus_transfer_cycles

    def test_store_to_pending_line_does_not_duplicate(self, hier):
        hier.load(1, 0x10000, 0)
        pending_before = len(hier._pending)
        hier.store(0x10008, 1)
        assert len(hier._pending) == pending_before


class TestSyntheticLoads:
    def test_synthetic_load_moves_lines(self, hier):
        out = hier.load_synthetic(0x10000, 0)
        assert out.kind is OutcomeKind.MISS
        hier.drain(10_000)
        assert hier.l1.contains(0x10000)
        assert hier.stats.total_loads == 0

    def test_synthetic_load_does_not_train_prefetcher(self):
        machine = MachineConfig()
        hier = MemoryHierarchy(machine)
        sb = StreamBufferPrefetcher(machine.stream_buffers, hier)
        hier.stream_prefetcher = sb
        addr = 0x10000
        for i in range(10):
            hier.load_synthetic(addr, i * 500)
            addr += 64
        assert sb.allocations == 0
        assert sb.predictor.updates == 0


class TestStreamBufferCoupling:
    def make(self):
        machine = MachineConfig()
        hier = MemoryHierarchy(machine)
        sb = StreamBufferPrefetcher(machine.stream_buffers, hier)
        hier.stream_prefetcher = sb
        return hier, sb

    def test_buffer_skips_software_covered_lines(self):
        hier, sb = self.make()
        # Train the PC's stride confidence far away from the target region.
        train = 0x900000
        for i in range(5):
            hier.load(9, train + i * 64, i * 400)
        # Software prefetches already cover lines 1..4 of the new region.
        base = 0x100000
        for i in range(1, 5):
            hier.software_prefetch(base + i * 64, 3_000)
        # The first demand miss in the region allocates a fresh buffer;
        # priming must skip the software-covered lines entirely.
        hier.load(9, base, 3_001)
        new_buffer = sb._block_map.get(base + 5 * 64)
        assert new_buffer is not None
        covered = {base + i * 64 for i in range(1, 5)}
        assert not covered & set(new_buffer.blocks)
        assert min(new_buffer.blocks) >= base + 5 * 64

    def test_hardware_prefetch_counts_only_new_fills(self):
        hier, sb = self.make()
        hier.software_prefetch(0x200000, 0)
        assert not hier.hardware_prefetch(0x200000, 1)
        assert hier.hardware_prefetch(0x200040, 1)

    def test_block_map_consistent_after_replacement(self):
        hier, sb = self.make()
        cycle = 0
        # Twelve streams force buffer replacement.
        for i in range(40):
            for s in range(12):
                hier.load(100 + s, 0x100000 + s * 0x200000 + i * 64, cycle)
                cycle += 40
        for block, buf in sb._block_map.items():
            assert block in buf.blocks
        for buf in sb._buffers:
            if buf is None:
                continue
            for block in buf.blocks:
                assert sb._block_map.get(block) is buf
