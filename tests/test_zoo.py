"""Unit tests for the hardware-prefetcher zoo: registry and engines.

The registry half pins the policy namespace (stable names, enum
disjointness, resolver semantics) that the CLI, ``make_job``, the cache
key, and the tournament all share.  The engine half drives each zoo
prefetcher through a recording stub hierarchy so the interesting control
decisions — GHB degree calibration, the STATISTICS/BEST_DEGREE sweep,
Triangel's confidence decay, the POWER7-style depth ladder — are
asserted directly rather than only through end-to-end timing.
"""

from __future__ import annotations

import pytest

from repro.config import MachineConfig, PrefetchPolicy
from repro.errors import ConfigError
from repro.hwprefetch.adaptive_nextline import (
    PAGE_SIZE,
    AdaptiveNextLinePrefetcher,
)
from repro.hwprefetch.ghb import GHBPrefetcher
from repro.hwprefetch.reconfig import PhaseReconfigPrefetcher
from repro.hwprefetch.triangel import TriangelPrefetcher
from repro.hwprefetch.zoo import (
    ZooEntry,
    all_policy_names,
    build_prefetcher,
    get_entry,
    policy_label,
    register,
    resolve_policy,
    zoo_names,
)
from repro.memory.hierarchy import MemoryHierarchy

EXPECTED_NAMES = (
    "ghb_delta", "adaptive_nextline", "triangel", "power7_reconfig",
)


class StubHierarchy:
    """Records every hardware_prefetch request; accepts them all."""

    def __init__(self, accept: bool = True) -> None:
        self.requests = []
        self.accept = accept

    def hardware_prefetch(self, addr: int, cycle: int) -> bool:
        self.requests.append(addr)
        return self.accept


class TestRegistry:
    def test_shipped_names_and_order(self):
        assert zoo_names() == EXPECTED_NAMES

    def test_all_policy_names_spans_both_namespaces(self):
        names = all_policy_names()
        assert names == tuple(p.value for p in PrefetchPolicy) + EXPECTED_NAMES
        assert len(names) == len(set(names))

    def test_get_entry_unknown(self):
        with pytest.raises(ConfigError, match="known"):
            get_entry("nonexistent")

    def test_register_rejects_duplicate(self):
        entry = get_entry("ghb_delta")
        with pytest.raises(ConfigError, match="already registered"):
            register(entry)

    def test_register_rejects_enum_collision(self):
        entry = ZooEntry(
            name=PrefetchPolicy.HW_ONLY.value, family="x",
            description="", recipe="", build=lambda m, h: None,
        )
        with pytest.raises(ConfigError, match="collides"):
            register(entry)
        assert PrefetchPolicy.HW_ONLY.value not in zoo_names()

    def test_register_rejects_missing_builder(self):
        entry = ZooEntry(
            name="no_builder", family="x", description="", recipe="",
        )
        with pytest.raises(ConfigError, match="builder"):
            register(entry)
        assert "no_builder" not in zoo_names()

    def test_register_rejects_non_string_name(self):
        entry = ZooEntry(
            name=None, family="x", description="", recipe="",
            build=lambda m, h: None,
        )
        with pytest.raises(ConfigError, match="string name"):
            register(entry)

    @pytest.mark.parametrize("name", EXPECTED_NAMES)
    def test_builders_produce_hook_compatible_engines(self, name):
        machine = MachineConfig()
        prefetcher = build_prefetcher(name, machine, MemoryHierarchy(machine))
        assert callable(prefetcher.on_demand_load)
        assert prefetcher.prefetches_issued == 0
        assert prefetcher.line_size == machine.line_size

    @pytest.mark.parametrize("name", EXPECTED_NAMES)
    def test_schema_matches_builder_defaults(self, name):
        """Every schema entry documents a real tunable: the built
        engine's actual defaults must agree."""
        entry = get_entry(name)
        built = entry.build(MachineConfig(), StubHierarchy())
        for key, expected in entry.schema.items():
            if key == "stride_entries":  # lives on the inner predictor
                actual = built.strides.entries
            else:
                actual = getattr(built, key)
            assert actual == expected, f"{name}.{key}"

    @pytest.mark.parametrize("name", EXPECTED_NAMES)
    def test_entries_document_recipes(self, name):
        entry = get_entry(name)
        assert name in entry.recipe
        assert entry.description


class TestResolvePolicy:
    @pytest.mark.parametrize("policy", list(PrefetchPolicy))
    def test_enum_passthrough(self, policy):
        assert resolve_policy(policy) == (policy, None)
        assert resolve_policy(policy.value) == (policy, None)

    @pytest.mark.parametrize("name", EXPECTED_NAMES)
    def test_zoo_name_rides_hw_only(self, name):
        assert resolve_policy(name) == (PrefetchPolicy.HW_ONLY, name)

    def test_unknown_lists_both_namespaces(self):
        with pytest.raises(ConfigError) as exc:
            resolve_policy("bogus")
        assert PrefetchPolicy.HW_ONLY.value in str(exc.value)
        assert "ghb_delta" in str(exc.value)

    def test_conflicting_hw_prefetcher_rejected_on_both_paths(self):
        from repro.harness.engine import make_job
        from repro.harness.runner import run_simulation

        for build in (make_job, run_simulation):
            with pytest.raises(ConfigError, match="conflicts with"):
                build("mcf", policy="ghb_delta", hw_prefetcher="triangel")

    def test_labels(self):
        assert policy_label(PrefetchPolicy.BASIC, None) == "basic"
        assert policy_label(PrefetchPolicy.HW_ONLY, "triangel") == "triangel"


class TestGHB:
    #: A periodic multi-delta pattern: a constant stride correlates but
    #: leaves no history to replay (the matched pair is always the one
    #: just written); a repeating delta *sequence* gives the GHB a past
    #: occurrence with real successors to prefetch.
    STRIDES = (128, 64, 256)

    def _drive(self, ghb, loads, perfect_memory=False):
        addr = 1 << 20
        for cycle in range(loads):
            block = ghb._block(addr)
            hit = perfect_memory and block in ghb._tagged
            ghb.on_demand_load(1, addr, l1_hit=hit, cycle=cycle)
            addr += self.STRIDES[cycle % len(self.STRIDES)]
        return addr

    def test_repeating_deltas_correlate_and_prefetch(self):
        hier = StubHierarchy()
        ghb = GHBPrefetcher(hier, calibration_interval=64)
        self._drive(ghb, loads=50)
        assert ghb.correlations_matched > 0
        assert ghb.prefetches_issued > 0
        # Constant stride 128: every replayed delta lands two lines up.
        assert all(addr % 64 == 0 for addr in hier.requests)

    def test_accurate_prefetching_raises_degree(self):
        hier = StubHierarchy()
        ghb = GHBPrefetcher(hier, calibration_interval=64)
        start_degree = ghb.degree
        # Perfect memory: every tagged block returns as a later L1 hit,
        # so issued accuracy is high and the calibrator probes upward.
        self._drive(ghb, loads=800, perfect_memory=True)
        assert ghb.calibrations >= 8
        assert ghb.degree > start_degree

    def test_useless_prefetching_lowers_degree(self):
        hier = StubHierarchy()
        ghb = GHBPrefetcher(hier, calibration_interval=64)
        start_degree = ghb.degree
        # Every load misses: tagged blocks never return as hits, so
        # issued accuracy is 0 and the calibrator backs off.
        self._drive(ghb, loads=800, perfect_memory=False)
        assert ghb.degree < start_degree

    def test_degree_zero_issues_nothing(self):
        hier = StubHierarchy()
        ghb = GHBPrefetcher(hier, degree=0, calibration_interval=1 << 30)
        self._drive(ghb, loads=50)
        assert ghb.prefetches_issued == 0
        assert hier.requests == []


class TestAdaptiveNextLine:
    def test_first_sweep_prefers_smaller_degree_on_tie(self):
        hier = StubHierarchy()
        p = AdaptiveNextLinePrefetcher(
            hier, stats_window=8, best_window=64, max_degree=2
        )
        # Identical (all-hit) windows for every probed degree: the tie
        # must resolve to the smaller degree.
        for cycle in range(2 * 8):  # sweep probes degrees 1 and 2
            p.on_demand_load(1, 0x1000, l1_hit=True, cycle=cycle)
        assert p.sweeps_completed == 1
        assert p.best_degree == 1
        assert p.degree == 1

    def test_best_degree_tracks_hit_rate(self):
        hier = StubHierarchy()
        p = AdaptiveNextLinePrefetcher(
            hier, stats_window=4, best_window=64, max_degree=2
        )
        # Degree 1's window misses everything, degree 2's window hits.
        for cycle in range(4):
            p.on_demand_load(1, 0x1000, l1_hit=False, cycle=cycle)
        for cycle in range(4):
            p.on_demand_load(1, 0x1000, l1_hit=True, cycle=cycle)
        assert p.sweeps_completed == 1
        assert p.best_degree == 2

    def test_remeasures_after_best_window(self):
        hier = StubHierarchy()
        p = AdaptiveNextLinePrefetcher(
            hier, stats_window=2, best_window=4, max_degree=1
        )
        for cycle in range(2):  # sweep: only degree 1 to probe
            p.on_demand_load(1, 0x1000, l1_hit=True, cycle=cycle)
        assert p.sweeps_completed == 1
        for cycle in range(4):  # exploitation window expires
            p.on_demand_load(1, 0x1000, l1_hit=True, cycle=cycle)
        # Re-measurement restarts from degree 0.
        assert p.degree == 0

    def test_never_crosses_page_boundary(self):
        hier = StubHierarchy()
        p = AdaptiveNextLinePrefetcher(hier, max_degree=4)
        p.degree = 4
        page = 5
        # Last block of the page: every next-line target crosses out.
        p.on_demand_load(1, page * PAGE_SIZE + PAGE_SIZE - 64, False, 0)
        assert hier.requests == []
        # First block of the page: the full run stays inside.
        p.degree = 4
        p.on_demand_load(1, page * PAGE_SIZE, False, 1)
        assert hier.requests
        assert all(t // PAGE_SIZE == page for t in hier.requests)


class TestTriangel:
    A, B, C, D = 0x1000, 0x2000, 0x3000, 0x4000

    def test_fresh_link_prefetches_and_chains(self):
        hier = StubHierarchy()
        t = TriangelPrefetcher(hier)
        t.on_demand_load(1, self.A, False, 0)
        t.on_demand_load(1, self.B, False, 1)  # trains A -> B
        t.on_demand_load(1, self.A, False, 2)  # trains B -> A, predicts
        # Hop 1 follows A -> B; hop 2 follows the fresh B -> A link.
        assert hier.requests == [self.B, self.A]
        assert t.entries_trained == 2

    def test_hits_neither_train_nor_predict(self):
        hier = StubHierarchy()
        t = TriangelPrefetcher(hier)
        for cycle, addr in enumerate((self.A, self.B, self.A)):
            t.on_demand_load(1, addr, l1_hit=True, cycle=cycle)
        assert t.entries_trained == 0
        assert hier.requests == []

    def test_disagreement_decays_then_filters(self):
        hier = StubHierarchy()
        t = TriangelPrefetcher(hier)
        for cycle, addr in enumerate((self.A, self.B)):  # A -> B (conf 1)
            t.on_demand_load(1, addr, False, cycle)
        t.on_demand_load(2, self.A, False, 2)  # fresh pc, no training pair
        t.on_demand_load(2, self.C, False, 3)  # A -> C disagrees: conf 0
        hier.requests.clear()
        t.on_demand_load(3, self.A, False, 4)  # entry present but conf 0
        assert hier.requests == []
        assert t.predictions_filtered >= 1

    def test_metadata_table_evicts_lru_source(self):
        hier = StubHierarchy()
        t = TriangelPrefetcher(hier, table_entries=2)
        # Three links from one pc: sources A, B, C; capacity 2.
        for cycle, addr in enumerate((self.A, self.B, self.C, self.D)):
            t.on_demand_load(1, addr, False, cycle)
        assert self.A not in t._table
        assert set(t._table) == {self.B, self.C}


class TestPhaseReconfig:
    def test_depth_ladder_follows_miss_rate(self):
        hier = StubHierarchy()
        p = PhaseReconfigPrefetcher(hier, epoch_loads=16)
        for cycle in range(16):  # all-miss epoch: miss rate 1.0
            p.on_demand_load(1, 0x1000 + cycle * 4096, False, cycle)
        assert p.depth == p.depths[-1]
        assert p.reconfigurations == 1
        for cycle in range(16):  # all-hit epoch: miss rate 0.0
            p.on_demand_load(1, 0x1000, True, cycle)
        assert p.depth == p.depths[0]
        assert p.reconfigurations == 2

    def test_sharp_phase_shift_resets_stride_history(self):
        hier = StubHierarchy()
        p = PhaseReconfigPrefetcher(hier, epoch_loads=8)
        for cycle in range(8):  # hot epoch
            p.on_demand_load(1, 0x1000 + cycle * 4096, False, cycle)
        trained = p.strides.updates
        assert trained > 0
        for cycle in range(8):  # quiet epoch: sharp relative shift
            p.on_demand_load(1, 0x1000, True, cycle)
        assert p.phase_switches == 1
        assert p.strides.updates == 0  # fresh predictor

    def test_confident_stride_prefetches_to_depth(self):
        hier = StubHierarchy()
        p = PhaseReconfigPrefetcher(hier, epoch_loads=1 << 30)
        stride, addr = 256, 1 << 20
        for cycle in range(8):
            p.on_demand_load(7, addr, False, cycle)
            addr += stride
        assert p.prefetches_issued > 0
        last = addr - stride  # final demand address
        depth = p.depth
        assert hier.requests[-depth:] == [
            last + stride * (i + 1) for i in range(depth)
        ]
