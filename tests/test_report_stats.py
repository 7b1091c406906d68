"""Tests for the report helpers and memory statistics aggregation."""

import pytest

from repro.harness.report import (
    arithmetic_mean,
    geometric_mean,
    percent,
    render_mapping,
    render_table,
    speedup_percent,
)
from repro.memory.stats import (
    LoadOutcome,
    MemoryStats,
    OutcomeKind,
    PrefetchSource,
)


#: ``LoadOutcome.is_miss`` for every kind: only the two L1-hit kinds
#: are not misses.
OUTCOME_IS_MISS = {
    OutcomeKind.HIT: False,
    OutcomeKind.HIT_PREFETCHED: False,
    OutcomeKind.PARTIAL_HIT: True,
    OutcomeKind.MISS: True,
    OutcomeKind.MISS_DUE_TO_PREFETCH: True,
}
#: Kinds whose prefetch source ``MemoryStats.record`` attributes.
PREFETCHED_KINDS = (OutcomeKind.HIT_PREFETCHED, OutcomeKind.PARTIAL_HIT)


class TestFormatting:
    def test_percent(self):
        assert percent(0.231) == "23.1%"
        assert percent(0.5, 0) == "50%"

    def test_speedup_percent(self):
        assert speedup_percent(1.231) == "+23.1%"
        assert speedup_percent(0.9) == "-10.0%"
        assert speedup_percent(1.0) == "+0.0%"

    def test_means(self):
        assert arithmetic_mean([1.0, 2.0, 3.0]) == 2.0
        assert arithmetic_mean([]) == 0.0
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)
        assert geometric_mean([]) == 0.0
        assert geometric_mean([0.0, -1.0]) == 0.0  # non-positive dropped

    def test_render_table_alignment(self):
        text = render_table(
            ["name", "value"],
            [("a", 1.5), ("long_name", 22.125)],
            title="T",
            precision=2,
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[2]
        assert "1.50" in text and "22.12" in text
        # All data rows align to the same width.
        widths = {len(line) for line in lines[2:]}
        assert len(widths) == 1

    def test_render_mapping(self):
        text = render_mapping("Config", {"alpha": 1, "beta": 2.5})
        assert "alpha" in text and "2.500" in text


class TestMemoryStats:
    def test_record_and_fractions(self):
        stats = MemoryStats()
        stats.record(LoadOutcome(OutcomeKind.HIT, 3, "l1"))
        stats.record(LoadOutcome(OutcomeKind.MISS, 350, "mem"))
        stats.record(
            LoadOutcome(
                OutcomeKind.HIT_PREFETCHED, 3, "l1", PrefetchSource.SOFTWARE
            )
        )
        assert stats.total_loads == 3
        assert stats.fraction(OutcomeKind.HIT) == pytest.approx(1 / 3)
        breakdown = stats.breakdown()
        assert breakdown["hit_prefetched"] == pytest.approx(1 / 3)
        assert sum(breakdown.values()) == pytest.approx(1.0)

    def test_prefetched_hits_attributed_by_source(self):
        for kind in OutcomeKind:
            for source in (None, *PrefetchSource):
                stats = MemoryStats()
                stats.record(LoadOutcome(kind, 90, "l2", source))
                assert stats.outcomes[kind] == 1
                assert stats.total_loads == 1
                assert stats.total_load_latency == 90
                assert stats.level_hits == {"l2": 1}
                counted = source is not None and kind in PREFETCHED_KINDS
                assert stats.prefetched_hits_by_source == {
                    src: int(counted and src is source)
                    for src in PrefetchSource
                }, (kind, source)

    def test_outcome_miss_semantics(self):
        assert set(OUTCOME_IS_MISS) == set(OutcomeKind)
        for kind, is_miss in OUTCOME_IS_MISS.items():
            for source in (None, *PrefetchSource):
                outcome = LoadOutcome(kind, 90, "l2", source)
                assert outcome.is_miss is is_miss, kind

    def test_miss_latency_zero_for_hits(self):
        for kind, is_miss in OUTCOME_IS_MISS.items():
            for source in (None, *PrefetchSource):
                outcome = LoadOutcome(kind, 90, "l2", source)
                assert outcome.miss_latency == (90 if is_miss else 0), kind

    def test_empty_breakdown(self):
        stats = MemoryStats()
        assert stats.fraction(OutcomeKind.HIT) == 0.0
        assert stats.total_loads == 0
