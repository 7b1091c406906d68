"""Tests for the workload data-structure builders."""

import random

import pytest

from repro.memory.mainmem import (
    HEAP_BASE,
    WORD_SIZE,
    DataMemory,
    HeapAllocator,
)
from repro.workloads.data import (
    build_array,
    build_csr_matrix,
    build_hash_table,
    build_linked_list,
    random_below,
)


@pytest.fixture
def env():
    memory = DataMemory()
    return memory, HeapAllocator(memory)


class TestHeapAllocator:
    def test_alignment(self, env):
        _memory, alloc = env
        a = alloc.alloc(10, align=64)
        assert a % 64 == 0
        b = alloc.alloc(8, align=8)
        assert b % 8 == 0
        assert b >= a + 10

    def test_rejects_bad_sizes(self, env):
        _memory, alloc = env
        with pytest.raises(ValueError):
            alloc.alloc(0)
        with pytest.raises(ValueError):
            alloc.alloc(8, align=3)

    def test_stagger_applies_to_large_allocations(self, env):
        _memory, alloc = env
        first = alloc.alloc(128 * 1024)
        second = alloc.alloc(128 * 1024)
        # The set-phase offset differs between consecutive large blocks.
        period = HeapAllocator.STAGGER_PERIOD
        assert (first % period) != (second % period)

    def test_small_allocations_not_staggered(self, env):
        _memory, alloc = env
        a = alloc.alloc(64)
        b = alloc.alloc(64)
        assert b - a == 64

    def test_stagger_can_be_disabled(self):
        alloc = HeapAllocator(DataMemory(), stagger=False)
        a = alloc.alloc(128 * 1024)
        b = alloc.alloc(128 * 1024)
        assert b - a == 128 * 1024

    def test_alloc_array_initialises(self, env):
        memory, alloc = env
        base = alloc.alloc_array(4, init=[10, 20, 30, 40])
        assert [memory.read(base + i * 8) for i in range(4)] == \
            [10, 20, 30, 40]

    def test_scramble_requires_rng(self, env):
        _memory, alloc = env
        with pytest.raises(ValueError):
            alloc.alloc_nodes(4, 2, scramble=True)


class TestLinkedList:
    def test_sequential_layout_constant_stride(self, env):
        memory, alloc = env
        head, nodes = build_linked_list(alloc, node_words=4, count=50)
        strides = {
            memory.read(addr) - addr
            for addr in nodes[:-1]
            if memory.read(addr) != head
        }
        assert len(strides) == 1  # perfectly regular next pointers

    def test_segment_layout_mostly_regular(self, env):
        memory, alloc = env
        rng = random.Random(1)
        head, nodes = build_linked_list(
            alloc, node_words=4, count=256, rng=rng, segment=64
        )
        addr = head
        strides = []
        for _ in range(255):
            nxt = memory.read(addr)
            strides.append(nxt - addr)
            addr = nxt
        regular = max(set(strides), key=strides.count)
        share = strides.count(regular) / len(strides)
        assert share > 0.9  # breaks only at segment joins

    def test_pad_words_spread_nodes(self, env):
        memory, alloc = env
        head, nodes = build_linked_list(
            alloc, node_words=2, count=10, pad_words=6
        )
        deltas = {b - a for a, b in zip(sorted(nodes), sorted(nodes)[1:])}
        assert deltas == {8 * WORD_SIZE}

    def test_values_initialised(self, env):
        memory, alloc = env
        head, nodes = build_linked_list(alloc, node_words=4, count=5)
        assert memory.read(head + 8) != 0 or memory.is_mapped(head + 8)


class TestHashTable:
    def test_every_bucket_has_full_chain(self, env):
        memory, alloc = env
        rng = random.Random(2)
        base = build_hash_table(
            alloc, buckets=16, chain_length=3, node_words=4, rng=rng
        )
        for b in range(16):
            head = memory.read(base + b * WORD_SIZE)
            depth = 0
            while head and depth < 10:
                head = memory.read(head)
                depth += 1
            assert depth == 3

    def test_nodes_have_keys_and_values(self, env):
        memory, alloc = env
        rng = random.Random(3)
        base = build_hash_table(
            alloc, buckets=4, chain_length=2, node_words=4, rng=rng
        )
        head = memory.read(base)
        assert memory.is_mapped(head + WORD_SIZE)       # key
        assert memory.read(head + 2 * WORD_SIZE) != 0   # value


class TestCSR:
    def test_column_indices_in_range(self, env):
        memory, alloc = env
        rng = random.Random(4)
        col, val, x = build_csr_matrix(
            alloc, rows=10, nnz_per_row=5, num_cols=64, rng=rng
        )
        for i in range(50):
            index = memory.read(col + i * WORD_SIZE)
            assert 0 <= index < 64

    def test_regions_distinct(self, env):
        _memory, alloc = env
        rng = random.Random(5)
        col, val, x = build_csr_matrix(
            alloc, rows=8, nnz_per_row=4, num_cols=32, rng=rng
        )
        assert len({col, val, x}) == 3
        assert col < val < x


class TestBuildArray:
    def test_returns_heap_address(self, env):
        _memory, alloc = env
        base = build_array(alloc, 100)
        assert base >= HEAP_BASE


class TestWriteWords:
    """``write_words`` is one ``write`` per pair, only faster."""

    PAIRS = [
        (HEAP_BASE + 16, 1),
        (HEAP_BASE + 3, 2),          # unaligned: lands on HEAP_BASE
        (HEAP_BASE + 16, 3.5),       # rewrite keeps the first position
        (HEAP_BASE + 8 * 1000, -4),
        (HEAP_BASE + 7, 5),          # HEAP_BASE again
    ]

    def _both(self, image=None):
        bulk, single = DataMemory(), DataMemory()
        if image is not None:
            bulk, single = image.view(), image.view()
        bulk.write_words(
            [addr for addr, _ in self.PAIRS],
            [value for _, value in self.PAIRS],
        )
        for addr, value in self.PAIRS:
            single.write(addr, value)
        return bulk, single

    def test_same_words_in_the_same_order(self):
        bulk, single = self._both()
        assert list(bulk.words().items()) == list(single.words().items())
        assert list(bulk.words()) == [HEAP_BASE + 16, HEAP_BASE,
                                      HEAP_BASE + 8000]
        assert len(bulk) == len(single) == 3

    def test_same_on_a_view(self):
        image = DataMemory()
        image.write_array(HEAP_BASE, [10, 20, 30])
        bulk, single = self._both(image)
        assert list(bulk.words().items()) == list(single.words().items())
        assert len(bulk) == len(single) == 4
        assert image.read(HEAP_BASE) == 10   # the image is untouched
        assert bulk.view().words() == single.view().words()

    def test_write_array_is_consecutive_writes(self):
        bulk, single = DataMemory(), DataMemory()
        bulk.write_array(HEAP_BASE + 3, iter([1, 2.5, -3]))
        for offset, value in enumerate([1, 2.5, -3]):
            single.write(HEAP_BASE + 8 * offset, value)
        assert list(bulk.words().items()) == list(single.words().items())

    def test_takes_any_iterables(self):
        memory = DataMemory()
        memory.write_words(range(HEAP_BASE, HEAP_BASE + 24, 8), iter("abc"))
        assert list(memory.words().items()) == [
            (HEAP_BASE, "a"), (HEAP_BASE + 8, "b"), (HEAP_BASE + 16, "c"),
        ]


class TestRandomBelow:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 1 << 16, 131_072, 100_003])
    def test_draws_what_randrange_draws(self, n):
        ours, theirs = random.Random(9), random.Random(9)
        assert random_below(ours, n, 500) == [
            theirs.randrange(n) for _ in range(500)
        ]
        assert ours.getstate() == theirs.getstate()

    def test_rejects_an_empty_range(self):
        with pytest.raises(ValueError):
            random_below(random.Random(1), 0, 1)


def _reference_linked_list(alloc, node_words, count, rng=None,
                           scramble=False, segment=None, pad_words=0,
                           value_init=True):
    """The builder as one write per word, for equivalence checks."""
    memory = alloc.memory
    addrs = alloc.alloc_nodes(count, node_words, rng=rng,
                              scramble=scramble, pad_words=pad_words)
    order = list(range(count))
    if segment is not None and segment > 0 and rng is not None:
        starts = list(range(0, count, segment))
        rng.shuffle(starts)
        order = []
        for start in starts:
            order.extend(range(start, min(start + segment, count)))
    chain = [addrs[i] for i in order]
    for pos, addr in enumerate(chain):
        memory.write(addr, chain[(pos + 1) % len(chain)])
        if value_init:
            for w in range(1, node_words):
                memory.write(addr + w * WORD_SIZE, (pos + w) & 0xFFFF)
    return chain[0], chain


def _reference_hash_table(alloc, buckets, chain_length, node_words, rng):
    memory = alloc.memory
    bucket_base = alloc.alloc_array(buckets)
    addrs = alloc.alloc_nodes(buckets * chain_length, node_words, rng=rng,
                              scramble=True)
    index = 0
    for b in range(buckets):
        head = 0
        for _ in range(chain_length):
            addr = addrs[index]
            index += 1
            memory.write(addr, head)
            memory.write(addr + WORD_SIZE, rng.randrange(1 << 16))
            memory.write(addr + 2 * WORD_SIZE, index)
            head = addr
        memory.write(bucket_base + b * WORD_SIZE, head)
    return bucket_base


def _reference_csr(alloc, rows, nnz_per_row, num_cols, rng):
    memory = alloc.memory
    nnz = rows * nnz_per_row
    col_base = alloc.alloc_array(nnz)
    val_base = alloc.alloc_array(nnz)
    x_base = alloc.alloc_array(num_cols)
    for i in range(nnz):
        memory.write(col_base + i * WORD_SIZE, rng.randrange(num_cols))
    return col_base, val_base, x_base


def _same_build(build, reference, seed=7, **kwargs):
    results = []
    for builder in (build, reference):
        memory = DataMemory()
        memory.write(HEAP_BASE, 99)  # a word already there stays first
        rng = random.Random(seed)
        if "rng" in kwargs:
            kwargs["rng"] = rng
        returned = builder(HeapAllocator(memory), **kwargs)
        results.append((returned, list(memory.words().items()),
                        rng.getstate()))
    assert results[0] == results[1]


class TestBulkBuildersMatchPerWordWrites:
    @pytest.mark.parametrize("kwargs", [
        dict(node_words=8, count=300, segment=64),
        dict(node_words=4, count=200, scramble=True),
        dict(node_words=3, count=50, pad_words=5),
        dict(node_words=1, count=20),
        dict(node_words=6, count=40, value_init=False),
        dict(node_words=2, count=70_000),            # fields wrap 0xFFFF
    ], ids=["segment", "scramble", "pad", "one-word", "no-values", "wrap"])
    def test_linked_list(self, kwargs):
        _same_build(build_linked_list, _reference_linked_list,
                    rng=None, **kwargs)

    def test_hash_table(self):
        _same_build(build_hash_table, _reference_hash_table, rng=None,
                    buckets=64, chain_length=4, node_words=4)

    def test_csr_matrix(self):
        _same_build(build_csr_matrix, _reference_csr, rng=None,
                    rows=30, nnz_per_row=7, num_cols=1000)
