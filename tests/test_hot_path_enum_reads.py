"""Lookup guard for the per-event paths.

On CPython 3.11, reading an Enum member through its class
(``OutcomeKind.HIT``) is a descriptor call that costs several plain
attribute reads.  The functions below run once per load, per prefetch
probe or per committed instruction, so they compare against members
bound to module constants instead (DESIGN.md §5c‴).  This test parses
each function's source and fails on any attribute read of an Enum class
named in ``ENUM_CLASSES``.
"""

from __future__ import annotations

import ast
import inspect
import textwrap

import pytest

from repro.config import PrefetchPolicy
from repro.hwprefetch.stream_buffer import StreamBufferPrefetcher
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.stats import LoadOutcome, MemoryStats
from repro.trident.dlt import DelinquentLoadTable
from repro.trident.runtime import TridentRuntime

ENUM_CLASSES = {"OutcomeKind", "PrefetchSource", "PrefetchPolicy", "Opcode"}

PER_EVENT_FUNCTIONS = [
    MemoryHierarchy.load,
    MemoryHierarchy._classify_miss,
    MemoryHierarchy.software_prefetch,
    MemoryStats.record,
    LoadOutcome.is_miss.fget,
    LoadOutcome.miss_latency.fget,
    StreamBufferPrefetcher._fill,
    StreamBufferPrefetcher.on_demand_load,
    StreamBufferPrefetcher._maybe_allocate,
    TridentRuntime.on_trace_load,
    TridentRuntime.tick,
    DelinquentLoadTable.update,
    PrefetchPolicy.software_prefetching.fget,
    PrefetchPolicy.hardware_prefetching.fget,
    PrefetchPolicy.inserts_prefetches.fget,
    PrefetchPolicy.adaptive_repair.fget,
    PrefetchPolicy.same_object_grouping.fget,
]


def enum_reads(source: str):
    """``Class.member`` reads of an ``ENUM_CLASSES`` class in ``source``."""
    return [
        f"{node.value.id}.{node.attr}"
        for node in ast.walk(ast.parse(textwrap.dedent(source)))
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Load)
        and isinstance(node.value, ast.Name)
        and node.value.id in ENUM_CLASSES
    ]


@pytest.mark.parametrize(
    "function", PER_EVENT_FUNCTIONS, ids=lambda f: f.__qualname__
)
def test_no_enum_member_reads(function):
    assert enum_reads(inspect.getsource(function)) == []


def test_checker_sees_member_reads():
    source = '''
    def f(outcome, policy):
        if outcome.kind is OutcomeKind.HIT:
            return policy in (PrefetchPolicy.BASIC,)
        return Opcode.LDQ
    '''
    assert sorted(enum_reads(source)) == [
        "Opcode.LDQ", "OutcomeKind.HIT", "PrefetchPolicy.BASIC",
    ]
