"""Simulated data memory and a heap allocator for workload data.

Data memory is a sparse, word-granular store: addresses are byte addresses,
values live at 8-byte-aligned words.  Workloads populate it through
:class:`HeapAllocator` before simulation starts, which mimics how a real
allocator lays objects out — sequential bump allocation produces the
"pointer loads that turn out to have stride access patterns" the paper's
DLT exploits (section 3.3), while scrambled allocation produces genuinely
irregular pointer chains.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, Iterable, List, Optional, Tuple, Union

Number = Union[int, float]

#: Where the simulated heap begins.  Anything below is unmapped.
HEAP_BASE = 0x1_0000

WORD_SIZE = 8
_ALIGN = ~(WORD_SIZE - 1)

#: The image of a memory that has none (never written).
_NO_IMAGE: Dict[int, Number] = {}


class DataMemory:
    """Sparse word-addressed data memory.

    Reads of unmapped addresses return 0 (the behaviour the non-faulting
    load relies on); plain loads to unmapped addresses also read 0 but the
    event is counted so tests can assert a workload never does it by
    accident.

    A memory may sit on a read-only *image*, the word dict of a memory
    that was built once and is shared by every run that starts from it
    (:meth:`view`).  Reads fall through this memory's own words to the
    image; writes only ever land in its own words, so views never see
    each other's stores and the image never changes.  Pickled, a view is
    indistinguishable from a memory built with the same writes: its state
    is the merged word dict, in the order a single dict would hold it.

    ``image_key`` is the workload registry's ``(name, seed)`` for a view
    of a memoized image (None otherwise).  It is not pickled; a snapshot
    uses it to refer to the shared image instead of copying it.
    """

    def __init__(self) -> None:
        self._words: Dict[int, Number] = {}
        self.unmapped_reads = 0
        self._image: Dict[int, Number] = _NO_IMAGE
        self.image_key: Optional[Tuple[str, int]] = None

    def view(self) -> "DataMemory":
        """A fresh copy-on-write memory whose image is this memory's
        words; this memory must not be written while views exist."""
        view = DataMemory()
        view._image = self.words()
        return view

    def words(self) -> Dict[int, Number]:
        """Every mapped word, address -> value, in the order one dict
        written with the same stores would hold them.  May be the live
        store or the image itself: read it, never modify it."""
        image = self._image
        if not image:
            return self._words
        if not self._words:
            return image
        merged = dict(image)
        merged.update(self._words)
        return merged

    def __getstate__(self):
        return {"_words": self.words(), "unmapped_reads": self.unmapped_reads}

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._image = _NO_IMAGE
        self.image_key = None

    def read(self, addr: int) -> Number:
        """Read the word containing byte address ``addr``."""
        addr &= _ALIGN
        word = self._words.get(addr)
        if word is None:
            word = self._image.get(addr)
            if word is None:
                self.unmapped_reads += 1
                return 0
        return word

    def read_quiet(self, addr: int) -> Number:
        """Read without counting unmapped accesses (non-faulting load)."""
        addr &= _ALIGN
        word = self._words.get(addr)
        if word is None:
            return self._image.get(addr, 0)
        return word

    def write(self, addr: int, value: Number) -> None:
        """Write the word containing byte address ``addr``."""
        self._words[addr & _ALIGN] = value

    def is_mapped(self, addr: int) -> bool:
        addr &= _ALIGN
        return addr in self._words or addr in self._image

    def __len__(self) -> int:
        image = self._image
        if not image:
            return len(self._words)
        return len(image) + sum(1 for addr in self._words if addr not in image)

    def write_words(
        self, addrs: Iterable[int], values: Iterable[Number]
    ) -> None:
        """Write each value at the byte address paired with it, in order.

        The same store as one :meth:`write` call per pair, including the
        order a later pickle or :meth:`words` sees, without the per-call
        cost (the workload builders write hundreds of thousands of
        words).  Both arguments may be lazy iterables.
        """
        self._words.update(zip(map(_ALIGN.__and__, addrs), values))

    def write_array(self, base: int, values: Iterable[Number]) -> None:
        """Write consecutive words starting at ``base``, in bulk."""
        addrs = itertools.count(base & _ALIGN, WORD_SIZE)
        self._words.update(zip(addrs, values))


class HeapAllocator:
    """Bump allocator over a :class:`DataMemory`.

    ``sequential`` allocation returns monotonically increasing addresses
    (real-allocator behaviour for a burst of same-sized allocations), so a
    linked list built with it has a *constant pointer stride* — exactly the
    property that lets the paper's DLT stride-predict pointer loads.
    ``scramble_chunks`` can then be used to destroy that property for
    workloads that need irregular chains.
    """

    #: Stagger period: large allocations are offset by multiples of 101
    #: cache lines so co-advancing arrays never share L1/L2 set phase.
    STAGGER_STEP = 101 * 64
    STAGGER_PERIOD = 32 * 1024

    def __init__(
        self, memory: DataMemory, base: int = HEAP_BASE,
        stagger: bool = True,
    ) -> None:
        self.memory = memory
        self._next = base
        #: Real allocators do not hand out set-aligned bases for every
        #: large request; without this, co-advancing arrays in the
        #: workloads would thrash the same L1 sets in lock-step.
        self.stagger = stagger
        self._large_allocs = 0

    @property
    def brk(self) -> int:
        """One past the highest address handed out so far."""
        return self._next

    def alloc(self, nbytes: int, align: int = WORD_SIZE) -> int:
        """Reserve ``nbytes`` and return the base address.

        The memory is zero-filled lazily (sparse store); callers write what
        they need.
        """
        if nbytes <= 0:
            raise ValueError("allocation size must be positive")
        if align & (align - 1):
            raise ValueError("alignment must be a power of two")
        if self.stagger and nbytes >= 64 * 1024:
            self._large_allocs += 1
            pad = (
                self._large_allocs * self.STAGGER_STEP
            ) % self.STAGGER_PERIOD
            self._next += pad
        self._next = (self._next + align - 1) & ~(align - 1)
        base = self._next
        self._next += nbytes
        return base

    def alloc_array(
        self, count: int, init: Optional[Iterable[Number]] = None,
        align: int = WORD_SIZE,
    ) -> int:
        """Allocate ``count`` words; optionally initialise them."""
        base = self.alloc(count * WORD_SIZE, align=align)
        if init is not None:
            self.memory.write_array(base, init)
        return base

    def alloc_nodes(
        self,
        count: int,
        node_words: int,
        rng: Optional[random.Random] = None,
        scramble: bool = False,
        pad_words: int = 0,
    ) -> List[int]:
        """Allocate ``count`` objects of ``node_words`` words each.

        Returns the object base addresses in allocation order.  With
        ``scramble`` the *placement* order is permuted, so consecutive
        logical nodes are far apart in memory (irregular pointer chains);
        without it, consecutive nodes sit at a constant stride.
        ``pad_words`` adds dead words between objects to control density.
        """
        stride_words = node_words + pad_words
        block = self.alloc(count * stride_words * WORD_SIZE)
        slots = list(range(count))
        if scramble:
            if rng is None:
                raise ValueError("scramble requires an rng")
            rng.shuffle(slots)
        return [block + slot * stride_words * WORD_SIZE for slot in slots]
