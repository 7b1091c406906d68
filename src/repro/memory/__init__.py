"""Memory-system substrate: data memory, caches, hierarchy, statistics."""

from .cache import SetAssociativeCache
from .hierarchy import MemoryHierarchy
from .mainmem import HEAP_BASE, WORD_SIZE, DataMemory, HeapAllocator
from .stats import (
    LoadOutcome,
    MemoryStats,
    OutcomeKind,
    PrefetchSource,
)

__all__ = [
    "DataMemory",
    "HEAP_BASE",
    "HeapAllocator",
    "LoadOutcome",
    "MemoryHierarchy",
    "MemoryStats",
    "OutcomeKind",
    "PrefetchSource",
    "SetAssociativeCache",
    "WORD_SIZE",
]
