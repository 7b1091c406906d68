"""Load-outcome accounting for Figure 6 and general memory statistics.

The paper's Figure 6 breaks all dynamic loads into:

* plain hits ("Hits-none"),
* first touches of prefetched lines ("Hit-prefetched"),
* partial prefetch hits (the fill was still in flight),
* misses,
* misses caused by prefetch displacement ("Miss due to prefetching").

:class:`LoadOutcome` is the per-access classification the hierarchy
returns; :class:`MemoryStats` aggregates them, separately for software-
and hardware-initiated prefetches so the harness can report either view.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict


class PrefetchSource(enum.Enum):
    """Who initiated a prefetch fill."""

    SOFTWARE = "software"
    STREAM_BUFFER = "stream_buffer"

    # Members are singletons, so identity hashing is equivalent to
    # Enum's name hash and runs in C on every stats-dict update.
    __hash__ = object.__hash__


class OutcomeKind(enum.Enum):
    """Figure-6 classification of one demand load."""

    HIT = "hit"
    HIT_PREFETCHED = "hit_prefetched"
    PARTIAL_HIT = "partial_hit"
    MISS = "miss"
    MISS_DUE_TO_PREFETCH = "miss_due_to_prefetch"

    __hash__ = object.__hash__  # see PrefetchSource


#: Members bound once: reading one through its class costs an Enum
#: descriptor call on CPython 3.11, and these are read on every load
#: (DESIGN.md §5c‴).
_HIT = OutcomeKind.HIT
_HIT_PF = OutcomeKind.HIT_PREFETCHED
_PARTIAL = OutcomeKind.PARTIAL_HIT


@dataclass(frozen=True)
class LoadOutcome:
    """What happened to one demand load.

    ``latency`` is the full cycles-until-data (the L1 hit latency for
    hits); ``level`` names where data was found (``"l1"``, ``"l2"``,
    ``"l3"``, ``"mem"``, ``"stream"``, ``"inflight"``).  ``miss_latency``
    is what the DLT should accumulate: 0 for an L1 hit, otherwise the
    observed latency (this is the "miss latency" of section 3.3).
    """

    kind: OutcomeKind
    latency: int
    level: str
    prefetch_source: "PrefetchSource | None" = None

    @property
    def is_miss(self) -> bool:
        """True when the access did not hit in the L1 (DLT's notion):
        every kind except the two L1-hit classifications."""
        kind = self.kind
        return kind is not _HIT and kind is not _HIT_PF

    @property
    def miss_latency(self) -> int:
        kind = self.kind
        if kind is _HIT or kind is _HIT_PF:
            return 0
        return self.latency


@dataclass
class MemoryStats:
    """Aggregated load outcomes plus prefetch-traffic counters."""

    outcomes: Dict[OutcomeKind, int] = field(
        default_factory=lambda: {kind: 0 for kind in OutcomeKind}
    )
    level_hits: Dict[str, int] = field(default_factory=dict)
    #: HIT_PREFETCHED / PARTIAL_HIT split by who prefetched.
    prefetched_hits_by_source: Dict[PrefetchSource, int] = field(
        default_factory=lambda: {src: 0 for src in PrefetchSource}
    )
    software_prefetches_issued: int = 0
    software_prefetches_useless: int = 0  # line already present/in flight
    hardware_prefetches_issued: int = 0
    stores: int = 0
    #: Sum of every demand load's cycles-until-data (windowed average
    #: access latency for the interval sampler).
    total_load_latency: int = 0

    def record(self, outcome: LoadOutcome) -> None:
        kind = outcome.kind
        self.outcomes[kind] += 1
        self.total_load_latency += outcome.latency
        level_hits = self.level_hits
        level = outcome.level
        level_hits[level] = level_hits.get(level, 0) + 1
        source = outcome.prefetch_source
        if source is not None and (kind is _HIT_PF or kind is _PARTIAL):
            self.prefetched_hits_by_source[source] += 1

    @property
    def total_loads(self) -> int:
        return sum(self.outcomes.values())

    def reset_measurement(self) -> None:
        """Zero every counter in place at the end of warmup.

        Part of the measurement-reset protocol all stat holders
        implement (see :meth:`repro.harness.runner.Simulation.run`):
        resetting mutates the existing object so components holding a
        reference (the hierarchy, an attached observer) keep seeing the
        live stats.
        """
        for kind in self.outcomes:
            self.outcomes[kind] = 0
        self.level_hits.clear()
        for source in self.prefetched_hits_by_source:
            self.prefetched_hits_by_source[source] = 0
        self.software_prefetches_issued = 0
        self.software_prefetches_useless = 0
        self.hardware_prefetches_issued = 0
        self.stores = 0
        self.total_load_latency = 0

    def fraction(self, kind: OutcomeKind) -> float:
        """Fraction of all loads with this outcome (0 when no loads ran)."""
        total = self.total_loads
        return self.outcomes[kind] / total if total else 0.0

    def breakdown(self) -> Dict[str, float]:
        """Figure-6 style breakdown as fractions of all dynamic loads."""
        return {kind.value: self.fraction(kind) for kind in OutcomeKind}
