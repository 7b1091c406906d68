"""State guard for the memory and Trident hot paths.

A snapshot pickles the hierarchy, its caches and the stream buffers, and
the Trident runtime with its helper thread, event queue, DLT and watch
table, so any attribute the per-load or per-instruction path adds to
them lands in the snapshot bytes.  The attribute lists below are
explicit on purpose: a new cache, intern table, bound-method shortcut or
cached helper wake-up cycle on one of these objects has to be added here
by hand, so it shows in the diff.
"""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.config import MachineConfig, PrefetchPolicy, SimulationConfig
from repro.harness.runner import Simulation
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.stats import OutcomeKind, PrefetchSource

HIERARCHY_ATTRS = [
    "config", "l1", "l2", "l3", "stats", "stream_prefetcher", "_pending",
    "_pending_heap", "_bus_free", "_outcome_hit", "_outcome_hit_pf", "obs", "_m_load_latency",
    "_m_fills", "dram_latency_extra", "bus_occupancy_scale",
    "lines_flushed",
]
CACHE_ATTRS = [
    "config", "name", "num_sets", "line_size", "_block_mask", "_line_shift",
    "_sets", "_displaced_by_prefetch", "hits", "misses", "evictions",
]
STREAM_BUFFER_ATTRS = [
    "config", "hierarchy", "predictor", "markov", "_buffers", "_block_mask",
    "_block_map", "_clock", "allocations",
    "stream_hits", "prefetches_issued",
]
PREDICTOR_ATTRS = ["entries", "_table", "updates", "replacements"]
RUNTIME_ATTRS = [
    "program", "machine", "trident", "policy", "overhead_only", "profiler",
    "watch_table", "dlt", "code_cache", "helper", "events", "trace_ids",
    "optimizer", "traces_formed", "traces_linked", "traces_backed_out",
    "drop_dlt_events_until", "dlt_events_dropped", "trace_load_pcs",
    "_backout_counts", "phase_changes", "_phase_loads", "_phase_misses",
    "_phase_prev_rate", "obs", "_m_dl_events",
]
HELPER_ATTRS = [
    "startup_cycles", "registration", "_job", "busy_until",
    "total_busy_cycles", "jobs_run", "jobs_by_kind", "stalled_until",
    "stalls", "jobs_failed", "obs",
]
EVENT_QUEUE_ATTRS = ["capacity", "_queue", "stats"]
DLT_ATTRS = [
    "config", "latency_threshold", "_num_sets", "_sets", "evictions",
    "events_fired", "windows_evaluated", "obs",
]
WATCH_TABLE_ATTRS = ["capacity", "_entries", "evictions"]


@pytest.fixture(scope="module")
def ran_simulation():
    """A simulation after a real run, so every hot path has executed."""
    config = SimulationConfig(
        policy=PrefetchPolicy.SELF_REPAIRING,
        max_instructions=6_000,
        warmup_instructions=2_000,
    )
    sim = Simulation("swim", config)
    sim.run()
    return sim


@pytest.fixture(scope="module")
def ran_hierarchy(ran_simulation):
    return ran_simulation.hierarchy


def _trident_parts(runtime):
    return [
        (runtime, RUNTIME_ATTRS),
        (runtime.helper, HELPER_ATTRS),
        (runtime.events, EVENT_QUEUE_ATTRS),
        (runtime.dlt, DLT_ATTRS),
        (runtime.watch_table, WATCH_TABLE_ATTRS),
    ]


def test_instance_attributes_are_exactly_the_listed_ones(ran_hierarchy):
    hier = ran_hierarchy
    sb = hier.stream_prefetcher
    assert sb.prefetches_issued > 0 and hier.stats.total_loads > 0
    assert list(vars(hier)) == HIERARCHY_ATTRS
    for cache in (hier.l1, hier.l2, hier.l3):
        assert list(vars(cache)) == CACHE_ATTRS
    assert list(vars(sb)) == STREAM_BUFFER_ATTRS
    assert list(vars(sb.predictor)) == PREDICTOR_ATTRS


def test_restore_keeps_the_attribute_lists(ran_hierarchy):
    copy = pickle.loads(pickle.dumps(ran_hierarchy))
    assert list(vars(copy)) == HIERARCHY_ATTRS
    assert list(vars(copy.l1)) == CACHE_ATTRS
    assert list(vars(copy.stream_prefetcher)) == STREAM_BUFFER_ATTRS
    # The predictor pickles its table as columns and rebuilds the
    # entries on load: same attributes, same entries, same order.
    predictor = ran_hierarchy.stream_prefetcher.predictor
    restored = copy.stream_prefetcher.predictor
    assert list(vars(restored)) == PREDICTOR_ATTRS
    assert restored._table == predictor._table
    assert any(entry.valid for entry in restored._table)


def test_trident_attributes_are_exactly_the_listed_ones(ran_simulation):
    runtime = ran_simulation.runtime
    assert runtime.helper.jobs_run > 0 and runtime.dlt.windows_evaluated > 0
    for part, attrs in _trident_parts(runtime):
        assert list(vars(part)) == attrs, type(part).__name__


def test_trident_restore_keeps_the_attribute_lists(ran_simulation):
    copy = pickle.loads(pickle.dumps(ran_simulation.runtime))
    for part, attrs in _trident_parts(copy):
        assert list(vars(part)) == attrs, type(part).__name__


def test_growing_intern_table_leaves_snapshot_bytes_alone():
    hier = MemoryHierarchy(MachineConfig())
    hier.load(1, 0x10000, 0)
    before = pickle.dumps(hier)
    # Intern a few hundred new miss outcomes elsewhere in the process.
    other = MemoryHierarchy(MachineConfig())
    for i in range(300):
        other.load(1, 0x400000 + i * 4096, i)
    assert pickle.dumps(hier) == before


def test_interned_outcomes_are_shared_and_frozen():
    hier = MemoryHierarchy(MachineConfig())
    first = hier.load(1, 0x100000, 0)
    second = hier.load(1, 0x900000, 1_000)  # bus idle again: same latency
    assert first.kind is OutcomeKind.MISS and first.level == "mem"
    assert second is first
    with pytest.raises(dataclasses.FrozenInstanceError):
        first.latency = 1

    hier.software_prefetch(0x200000, 2_000)
    partial = hier.load(1, 0x200000, 2_100)
    hier.software_prefetch(0x300000, 3_000)
    again = hier.load(1, 0x300000, 3_100)
    assert partial.kind is OutcomeKind.PARTIAL_HIT
    assert partial.prefetch_source is PrefetchSource.SOFTWARE
    assert again is partial


def test_enum_hash_is_identity():
    for enum_cls in (OutcomeKind, PrefetchSource):
        for member in enum_cls:
            assert hash(member) == object.__hash__(member)
