"""Heap data-structure builders shared by the workloads.

These mirror how the paper's benchmarks lay out memory:

* dense arrays and matrices (the FP codes),
* linked lists whose nodes a bump allocator placed sequentially — giving
  pointer loads a *constant address stride* the DLT can discover (the
  paper's key observation in section 3.3),
* scrambled linked lists (genuinely irregular chains),
* chained hash tables (parser),
* compressed sparse rows (equake-style indexed gathers).
"""

from __future__ import annotations

import itertools
import random
from typing import List, Optional, Sequence, Tuple

from ..memory.mainmem import HeapAllocator, WORD_SIZE

_flatten = itertools.chain.from_iterable


def random_below(rng: random.Random, n: int, count: int) -> List[int]:
    """``[rng.randrange(n) for _ in range(count)]``, drawn the same way.

    ``random.Random.randrange(n)`` takes ``n.bit_length()`` random bits
    and draws again while the result is ``>= n``; this loop does exactly
    that without randrange's per-call argument checks, which dominate
    when a builder draws hundreds of thousands of values.
    """
    if n <= 0:
        raise ValueError("empty range for randrange()")
    getrandbits = rng.getrandbits
    bits = n.bit_length()
    out: List[int] = []
    append = out.append
    for _ in range(count):
        r = getrandbits(bits)
        while r >= n:
            r = getrandbits(bits)
        append(r)
    return out


def build_array(
    alloc: HeapAllocator,
    count: int,
    init: Optional[Sequence[float]] = None,
) -> int:
    """Allocate a ``count``-word array; returns its base address.

    Uninitialised words read as zero (the store is sparse), which is fine
    for FP streams — only the addresses matter to the memory system.
    """
    return alloc.alloc_array(count, init=init)


def build_linked_list(
    alloc: HeapAllocator,
    node_words: int,
    count: int,
    rng: Optional[random.Random] = None,
    scramble: bool = False,
    segment: Optional[int] = None,
    pad_words: int = 0,
    value_init: bool = True,
) -> Tuple[int, List[int]]:
    """Build a singly linked list; returns (head address, node addresses).

    Layout modes:

    * default — nodes in allocation order: the ``next`` pointers advance by
      a constant stride, so the chase load is DLT-stride-predictable;
    * ``scramble`` — logical order is a random permutation of placement:
      no stride whatsoever (forces Pointer classification);
    * ``segment=k`` — runs of ``k`` sequential nodes with a random jump
      between runs (mcf-like: stride predictable with periodic breaks).

    Node layout: word 0 = next pointer (0 terminates), words 1.. = fields.
    """
    memory = alloc.memory
    addrs = alloc.alloc_nodes(
        count,
        node_words,
        rng=rng,
        scramble=scramble,
        pad_words=pad_words,
    )
    order = list(range(count))
    if segment is not None and segment > 0 and rng is not None:
        starts = list(range(0, count, segment))
        rng.shuffle(starts)
        order = []
        for start in starts:
            order.extend(range(start, min(start + segment, count)))
    chain = [addrs[i] for i in order]
    nexts = chain[1:] + chain[:1]
    if not value_init or node_words < 2:
        memory.write_words(chain, nexts)
        return chain[0], chain
    # Node by node, in the order one write per word would go: the next
    # pointer, then fields 1.. holding (position + field) & 0xFFFF.
    low = [pos & 0xFFFF for pos in range(count + node_words)]
    fields = range(1, node_words)
    memory.write_words(
        _flatten(zip(chain, *(
            map((w * WORD_SIZE).__add__, chain) for w in fields
        ))),
        _flatten(zip(nexts, *(low[w:w + count] for w in fields))),
    )
    return chain[0], chain


def build_hash_table(
    alloc: HeapAllocator,
    buckets: int,
    chain_length: int,
    node_words: int,
    rng: random.Random,
) -> int:
    """Chained hash table with scrambled chain nodes; returns the bucket
    array's base address (each bucket holds a head pointer)."""
    memory = alloc.memory
    bucket_base = alloc.alloc_array(buckets)
    total = buckets * chain_length
    addrs = alloc.alloc_nodes(total, node_words, rng=rng, scramble=True)
    keys = random_below(rng, 1 << 16, total)
    addr_out: List[int] = []
    value_out: List[int] = []
    index = 0
    for b in range(buckets):
        head = 0
        for _ in range(chain_length):
            addr = addrs[index]
            # next pointer, key, value
            addr_out += (addr, addr + WORD_SIZE, addr + 2 * WORD_SIZE)
            value_out += (head, keys[index], index + 1)
            index += 1
            head = addr
        addr_out.append(bucket_base + b * WORD_SIZE)
        value_out.append(head)
    memory.write_words(addr_out, value_out)
    return bucket_base


def build_csr_matrix(
    alloc: HeapAllocator,
    rows: int,
    nnz_per_row: int,
    num_cols: int,
    rng: random.Random,
) -> Tuple[int, int, int]:
    """Compressed-sparse-row structure: (col_index_base, values_base,
    x_vector_base).  Column indices are random — the gather through them
    is the unprefetchable access equake exposes."""
    memory = alloc.memory
    nnz = rows * nnz_per_row
    col_base = alloc.alloc_array(nnz)
    val_base = alloc.alloc_array(nnz)
    x_base = alloc.alloc_array(num_cols)
    memory.write_array(col_base, random_below(rng, num_cols, nnz))
    return col_base, val_base, x_base
