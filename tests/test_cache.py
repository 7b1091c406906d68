"""Tests for the set-associative cache: geometry, LRU, prefetch metadata,
packed pickle state."""

import io
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkpoint.snapshot import _CanonicalPickler, canonical_dumps
from repro.config import CacheConfig, MachineConfig
from repro.errors import ConfigError
from repro.memory.cache import PREFETCHED, SOURCE_CODE, SetAssociativeCache
from repro.memory.stats import PrefetchSource


def small_cache(sets=4, assoc=2, line=64):
    config = CacheConfig(
        size_bytes=sets * assoc * line, associativity=assoc, latency=3,
        line_size=line,
    )
    return SetAssociativeCache(config, "test")


class TestGeometry:
    def test_num_sets(self):
        config = CacheConfig(64 * 1024, 2, 3, 64)
        assert config.num_sets == 512

    def test_invalid_geometry_rejected(self):
        """A level with no ways, or too small for one set, is refused
        where the config is built, directly and from the dict form
        journals and job inputs carry, not later by ``num_sets`` or the
        cache built on it."""
        for size, assoc in ((32, 2), (64, 2), (64 * 1024, 0), (64 * 1024, -2)):
            with pytest.raises(ConfigError):
                CacheConfig(size, assoc, 3, 64)
            raw = {"l1": {"size_bytes": size, "associativity": assoc,
                          "latency": 3}}
            with pytest.raises(ConfigError):
                MachineConfig.from_dict(raw)

    def test_one_set_is_the_smallest_geometry(self):
        assert CacheConfig(128, 2, 3, 64).num_sets == 1

    def test_block_alignment(self):
        cache = small_cache()
        assert cache.block_of(0) == 0
        assert cache.block_of(63) == 0
        assert cache.block_of(64) == 64
        assert cache.block_of(130) == 128

    @given(
        st.integers(min_value=-(1 << 40), max_value=1 << 40),
        st.sampled_from(((704, 2, 64), (3, 2, 64), (8, 4, 32), (1, 1, 128))),
    )
    @settings(max_examples=50)
    def test_block_and_set_match_floor_division(self, addr, geometry):
        """The mask/shift/modulo rule places every address, negative
        ones and non-power-of-two set counts (section 5.4's 704-set L1)
        included, where floor division does."""
        cache = small_cache(*geometry)
        line = cache.line_size
        block = addr - addr % line
        assert cache.block_of(addr) == block
        cache.install(addr)
        assert list(cache._sets) == [(block // line) % cache.num_sets]
        assert cache.contains(block + line - 1)


class TestLookupInstall:
    def test_miss_then_hit(self):
        cache = small_cache()
        assert cache.lookup(0x100) is None
        cache.install(0x100)
        assert cache.lookup(0x100) is not None
        assert cache.misses == 1
        assert cache.hits == 1

    def test_same_line_words_share_block(self):
        cache = small_cache()
        cache.install(0x100)
        assert cache.lookup(0x108) is not None
        assert cache.lookup(0x13F) is not None

    def test_untouched_probe_has_no_side_effects(self):
        cache = small_cache(sets=1, assoc=2)
        cache.install(0, prefetched=True, source=PrefetchSource.SOFTWARE)
        cache.install(64)
        assert cache.contains(0)
        assert not cache.contains(0x200)
        assert (cache.hits, cache.misses) == (0, 0)
        # No LRU touch and no byte change.
        assert list(cache._sets[0].items()) == [
            (0, PREFETCHED | SOURCE_CODE[PrefetchSource.SOFTWARE]), (64, 0),
        ]

    def test_lru_eviction_order(self):
        cache = small_cache(sets=1, assoc=2)
        cache.install(0 * 64)
        cache.install(1 * 64)
        cache.lookup(0)          # touch block 0: block 64 becomes LRU
        victim = cache.install(2 * 64)
        assert victim == 64
        assert cache.contains(0)
        assert not cache.contains(64)

    def test_install_existing_refreshes_lru(self):
        cache = small_cache(sets=1, assoc=2)
        cache.install(0)
        cache.install(64)
        cache.install(0)         # refresh block 0
        cache.install(128)
        assert cache.contains(0)
        assert not cache.contains(64)

    def test_eviction_counted(self):
        cache = small_cache(sets=1, assoc=1)
        cache.install(0)
        cache.install(64)
        assert cache.evictions == 1

    def test_resident_blocks(self):
        cache = small_cache()
        cache.install(0)
        cache.install(64)
        cache.install(0)
        assert cache.resident_blocks == 2


class TestPrefetchMetadata:
    def test_prefetched_bit_set_on_install(self):
        cache = small_cache()
        cache.install(0x100, prefetched=True, source=PrefetchSource.SOFTWARE)
        meta = cache.lookup(0x100)
        assert meta & PREFETCHED
        assert meta & ~PREFETCHED == SOURCE_CODE[PrefetchSource.SOFTWARE]

    def test_first_demand_touch_clears_byte(self):
        cache = small_cache(sets=1, assoc=2)
        cache.install(0, prefetched=True, source=PrefetchSource.STREAM_BUFFER)
        cache.install(64)
        assert cache.contains(0)                          # a probe keeps it
        assert cache._sets[0][0] & PREFETCHED
        assert cache.lookup(0) & PREFETCHED               # the first touch
        assert cache.lookup(0) == 0                       # sees it cleared
        assert list(cache._sets[0].items()) == [(64, 0), (0, 0)]

    def test_install_over_existing_keeps_metadata(self):
        cache = small_cache()
        cache.install(0x100)
        cache.install(0x100, prefetched=True)
        assert not cache.lookup(0x100) & PREFETCHED

    def test_prefetch_displacement_logged_and_consumed(self):
        cache = small_cache(sets=1, assoc=1)
        cache.install(0)
        cache.install(64, prefetched=True)   # evicts block 0
        assert cache.consume_displaced_tag(0)
        # consumed: second miss on the same tag is a plain miss
        assert not cache.consume_displaced_tag(0)

    def test_demand_displacement_not_logged(self):
        cache = small_cache(sets=1, assoc=1)
        cache.install(0)
        cache.install(64)                    # demand install
        assert not cache.consume_displaced_tag(0)

    def test_displaced_log_bounded(self):
        cache = small_cache(sets=1, assoc=1)
        limit = SetAssociativeCache.DISPLACED_LOG_LIMIT
        for i in range(limit + 10):
            cache.install(i * 64, prefetched=True)
        assert len(cache._displaced_by_prefetch) <= limit


def _line_table(cache):
    """Non-empty sets in iteration order: (index, [(block, byte), ...])."""
    return [
        (index, list(bucket.items()))
        for index, bucket in cache._sets.items() if bucket
    ]


_cache_ops = st.lists(
    st.tuples(
        st.sampled_from(("demand", "prefetch", "lookup")),
        st.integers(min_value=0, max_value=1 << 14),
        st.sampled_from(tuple(SOURCE_CODE)),
    ),
    max_size=200,
)


class TestPackedState:
    @given(
        st.sampled_from(((4, 2, 64), (3, 2, 64), (8, 4, 32), (1, 1, 64))),
        _cache_ops,
    )
    @settings(max_examples=50)
    def test_round_trip_keeps_lines_and_bytes(self, geometry, ops):
        cache = small_cache(*geometry)
        for kind, addr, source in ops:
            if kind == "demand":
                cache.install(addr)
            elif kind == "prefetch":
                cache.install(addr, prefetched=True, source=source)
            else:
                cache.lookup(addr)
        restored = pickle.loads(pickle.dumps(cache))
        # Sets come back sorted by index, each in LRU order with the
        # same metadata bytes; no set is empty.
        assert _line_table(restored) == sorted(_line_table(cache))
        assert all(restored._sets.values())
        assert list(restored._displaced_by_prefetch) == list(
            cache._displaced_by_prefetch
        )
        assert restored.__getstate__() == cache.__getstate__()
        assert canonical_dumps(restored) == canonical_dumps(cache)

    def test_pickle_work_does_not_grow_with_resident_lines(self):
        """A level packs into a fixed number of objects, so the
        pure-Python pickler's work is the same for an empty and a full
        L3 (set-by-set packing made it grow with the sets in use)."""

        class CountingPickler(_CanonicalPickler):
            saves = 0

            def save(self, obj, save_persistent_id=True):
                self.saves += 1
                super().save(obj, save_persistent_id)

        def saves(cache):
            pickler = CountingPickler(io.BytesIO(), protocol=4)
            pickler.dump(cache)
            return pickler.saves

        config = MachineConfig().l3
        empty = SetAssociativeCache(config, "l3")
        full = SetAssociativeCache(config, "l3")
        lines = config.num_sets * config.associativity
        for i in range(lines):
            full.install(i * config.line_size)
        for i in range(lines, lines + config.num_sets):
            full.install(
                i * config.line_size, prefetched=True,
                source=PrefetchSource.STREAM_BUFFER,
            )
        assert full.resident_blocks == lines
        assert full._displaced_by_prefetch
        assert saves(full) == saves(empty)
