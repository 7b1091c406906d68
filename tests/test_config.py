"""Tests for the configuration objects (the paper's Tables 1 and 2)."""

import pytest

from repro.config import (
    CacheConfig,
    DLTConfig,
    MachineConfig,
    PrefetchPolicy,
    SimulationConfig,
    StreamBufferConfig,
    TridentConfig,
)


class TestTable1:
    def test_paper_baseline_matches_table_1(self):
        m = MachineConfig.paper_baseline()
        assert m.issue_width == 4
        assert m.pipeline_depth == 20
        assert m.rob_entries == 256
        assert m.hardware_contexts == 2
        assert m.l1.size_bytes == 64 * 1024
        assert m.l1.associativity == 2 and m.l1.latency == 3
        assert m.l2.size_bytes == 512 * 1024
        assert m.l2.associativity == 8 and m.l2.latency == 11
        assert m.l3.size_bytes == 4 * 1024 * 1024
        assert m.l3.associativity == 16 and m.l3.latency == 35
        assert m.memory_latency == 350
        assert m.stream_buffers.num_buffers == 8
        assert m.stream_buffers.entries_per_buffer == 8
        assert m.stream_buffers.history_table_entries == 1024

    def test_l2_miss_latency_is_l3_hit(self):
        assert MachineConfig().l2_miss_latency == 35

    def test_with_stream_buffers(self):
        m = MachineConfig().with_stream_buffers(
            StreamBufferConfig.paper_4x4()
        )
        assert m.stream_buffers.num_buffers == 4
        assert m.l1.size_bytes == 64 * 1024  # rest untouched

    def test_with_l1_size(self):
        m = MachineConfig().with_l1_size(88 * 1024)
        assert m.l1.size_bytes == 88 * 1024
        assert m.l1.associativity == 2

    def test_cache_geometry(self):
        assert CacheConfig(64 * 1024, 2, 3).num_sets == 512


class TestTable2:
    def test_paper_default_matches_table_2(self):
        t = TridentConfig.paper_default()
        assert t.profiler_entries == 256
        assert t.profiler_associativity == 4
        assert t.profiler_counter_bits == 4
        assert t.capture_bitmap_branches == 48  # three 16-bit bitmaps
        assert t.watch_table_entries == 256
        assert t.dlt.entries == 1024
        assert t.dlt.associativity == 2
        assert t.dlt.access_window == 256
        assert t.dlt.miss_threshold == 8

    def test_dlt_miss_rate(self):
        assert DLTConfig().miss_rate_threshold == pytest.approx(8 / 256)

    def test_with_miss_rate(self):
        dlt = DLTConfig().with_miss_rate(0.06)
        assert dlt.miss_threshold == 15  # round(0.06 * 256)

    def test_with_window_keeps_rate(self):
        dlt = DLTConfig().with_window(512)
        assert dlt.access_window == 512
        assert dlt.miss_threshold == 16

    def test_with_entries(self):
        assert DLTConfig().with_entries(128).entries == 128

    def test_confidence_parameters(self):
        dlt = DLTConfig()
        assert (dlt.confidence_max, dlt.confidence_up, dlt.confidence_down) \
            == (15, 1, 7)


#: Every policy's flags: (software_prefetching, hardware_prefetching,
#: inserts_prefetches, adaptive_repair, same_object_grouping).
POLICY_FLAGS = {
    PrefetchPolicy.NONE: (False, False, False, False, False),
    PrefetchPolicy.HW_ONLY: (False, True, False, False, False),
    PrefetchPolicy.BASIC: (True, True, True, False, False),
    PrefetchPolicy.WHOLE_OBJECT: (True, True, True, False, True),
    PrefetchPolicy.SELF_REPAIRING: (True, True, True, True, True),
    PrefetchPolicy.SW_ONLY: (True, False, True, True, True),
    PrefetchPolicy.TRACE_ONLY: (True, True, False, False, True),
}


def _column(index):
    return {policy: row[index] for policy, row in POLICY_FLAGS.items()}


class TestPolicies:
    def test_flag_table_covers_every_policy(self):
        assert set(POLICY_FLAGS) == set(PrefetchPolicy)

    def test_software_prefetching_flags(self):
        for policy, expected in _column(0).items():
            assert policy.software_prefetching is expected, policy

    def test_hardware_prefetching_flags(self):
        for policy, expected in _column(1).items():
            assert policy.hardware_prefetching is expected, policy

    def test_inserts_prefetches(self):
        for policy, expected in _column(2).items():
            assert policy.inserts_prefetches is expected, policy

    def test_adaptive_repair_flags(self):
        for policy, expected in _column(3).items():
            assert policy.adaptive_repair is expected, policy

    def test_grouping_flags(self):
        for policy, expected in _column(4).items():
            assert policy.same_object_grouping is expected, policy

    def test_simulation_config_replace(self):
        cfg = SimulationConfig()
        other = cfg.replace(max_instructions=5)
        assert other.max_instructions == 5
        assert cfg.max_instructions != 5
