"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.harness import blobstore as _blobstore


@pytest.fixture(autouse=True)
def _isolated_result_cache(tmp_path_factory, monkeypatch):
    """Keep every test away from the user's real result cache: point
    REPRO_CACHE_DIR at a session-scoped temp directory (shared within
    the session so baseline-reuse still works across tests)."""
    root = tmp_path_factory.getbasetemp() / "repro-cache"
    monkeypatch.setenv(_blobstore.ENV_CACHE_DIR, str(root))

from repro.config import (
    DLTConfig,
    MachineConfig,
    SimulationConfig,
    TridentConfig,
)
from repro.isa.assembler import Assembler
from repro.memory.mainmem import DataMemory, HeapAllocator


@pytest.fixture
def machine() -> MachineConfig:
    return MachineConfig.paper_baseline()


@pytest.fixture
def trident() -> TridentConfig:
    return TridentConfig.paper_default()


@pytest.fixture
def memory() -> DataMemory:
    return DataMemory()


@pytest.fixture
def alloc(memory) -> HeapAllocator:
    return HeapAllocator(memory)


def simple_stride_program(
    iters: int = 10_000, base: int = 0x10000, stride: int = 8
):
    """A minimal hot loop: one strided load per iteration.

    Returns the assembled program; memory contents are irrelevant (reads
    of unmapped words are zero).
    """
    asm = Assembler("stride_loop")
    asm.li("r1", base)
    asm.li("r2", iters)
    asm.label("loop")
    asm.ldq("r3", "r1", 0)
    asm.addq("r11", "r11", rb="r3")
    asm.lda("r1", "r1", stride)
    asm.subq("r2", "r2", imm=1)
    asm.bne("r2", "loop")
    asm.halt()
    return asm.build()


def pointer_chase_program(iters: int = 5_000):
    """A chase loop over a list the caller must build at HEAP_BASE."""
    asm = Assembler("chase_loop")
    asm.li("r1", 0x10000)
    asm.li("r2", iters)
    asm.label("loop")
    asm.ldq("r3", "r1", 8)
    asm.addq("r11", "r11", rb="r3")
    asm.ldq("r1", "r1", 0)
    asm.subq("r2", "r2", imm=1)
    asm.bne("r2", "loop")
    asm.halt()
    return asm.build()
