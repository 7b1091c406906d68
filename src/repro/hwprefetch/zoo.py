"""The hardware-prefetcher zoo: a registry of pluggable policies.

The paper compares its self-repairing software prefetcher against one
static stream-buffer baseline — a weak test of the adaptivity claim.
The zoo supplies genuinely adaptive hardware baselines drawn from the
related work, each registered under a stable string name so it is
selectable everywhere a policy is (CLI ``--policy``, ``make_job``, the
result cache key, the tournament experiment):

* ``ghb_delta`` — GHB/delta-correlation with countdown degree
  calibration (:mod:`repro.hwprefetch.ghb`);
* ``adaptive_nextline`` — ChampSim-style STATISTICS/BEST_DEGREE
  feedback next-line (:mod:`repro.hwprefetch.adaptive_nextline`);
* ``triangel`` — temporal metadata table with confidence filtering
  (:mod:`repro.hwprefetch.triangel`);
* ``power7_reconfig`` — runtime depth reconfiguration per detected
  phase (:mod:`repro.hwprefetch.reconfig`).

A zoo policy runs with the :class:`~repro.config.PrefetchPolicy.HW_ONLY`
base policy — the named engine simply *replaces* the stock stream
buffers as ``MemoryHierarchy.stream_prefetcher``.  The hook lives in the
hierarchy, not the interpreters, so every zoo policy is automatically
interpreter-agnostic; the differential suites still prove each one
byte-identical fast-vs-slow and resume-vs-cold.

Registering a policy (DESIGN.md §5h): implement ``on_demand_load(pc,
addr, l1_hit, cycle)`` issuing fills via ``hierarchy.hardware_prefetch``
with deterministic, picklable, plain-attribute state, then
``register(ZooEntry(name=..., build=...))`` here.  The name must not
collide with a :class:`PrefetchPolicy` value — the resolver accepts
both namespaces in one ``--policy`` argument.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from ..config import PrefetchPolicy
from ..errors import ConfigError
from .adaptive_nextline import AdaptiveNextLinePrefetcher
from .ghb import GHBPrefetcher
from .reconfig import PhaseReconfigPrefetcher
from .triangel import TriangelPrefetcher


@dataclass(frozen=True)
class ZooEntry:
    """One registered hardware-prefetcher policy."""

    name: str
    family: str
    description: str
    #: One-line CLI recipe (README's per-policy table).
    recipe: str
    #: Tunable -> default value; documentation of the config surface,
    #: asserted against each builder's keyword defaults by the tests.
    schema: Dict[str, object] = field(default_factory=dict)
    #: ``build(hierarchy) -> prefetcher`` (duck-typed; see module
    #: docstring for the required surface).
    build: Callable[[object], object] = None


_REGISTRY: Dict[str, ZooEntry] = {}


def register(entry: ZooEntry) -> ZooEntry:
    """Add a policy to the zoo; names are unique and enum-disjoint."""
    if not entry.name or not isinstance(entry.name, str):
        raise ConfigError(f"zoo policy needs a string name, got {entry.name!r}")
    if entry.name in _REGISTRY:
        raise ConfigError(f"zoo policy {entry.name!r} already registered")
    if entry.name in set(p.value for p in PrefetchPolicy):
        raise ConfigError(
            f"zoo policy {entry.name!r} collides with a PrefetchPolicy value"
        )
    if entry.build is None:
        raise ConfigError(f"zoo policy {entry.name!r} has no builder")
    _REGISTRY[entry.name] = entry
    return entry


def zoo_names() -> Tuple[str, ...]:
    """Registered policy names, in registration order."""
    return tuple(_REGISTRY)


def get_entry(name: str) -> ZooEntry:
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(_REGISTRY) or "(none)"
        raise ConfigError(
            f"unknown hardware prefetcher {name!r}; known: {known}"
        ) from None


def build_prefetcher(name: str, hierarchy):
    """Construct the named engine against a hierarchy (the
    :class:`~repro.harness.runner.Simulation` construction seam).
    Engines read their line size from ``hierarchy.l1``."""
    return get_entry(name).build(hierarchy)


def resolve_policy(value) -> Tuple[PrefetchPolicy, Optional[str]]:
    """Map one ``--policy`` argument onto ``(policy, hw_prefetcher)``.

    Enum members and enum values resolve to ``(policy, None)``; zoo
    names resolve to ``(HW_ONLY, name)`` — the named engine rides the
    hardware-only base policy.  Anything else raises
    :class:`~repro.errors.ConfigError` listing both namespaces.
    """
    if isinstance(value, PrefetchPolicy):
        return value, None
    if isinstance(value, str):
        try:
            return PrefetchPolicy(value), None
        except ValueError:
            pass
        if value in _REGISTRY:
            return PrefetchPolicy.HW_ONLY, value
    known = ", ".join(
        [p.value for p in PrefetchPolicy] + list(_REGISTRY)
    )
    raise ConfigError(f"unknown prefetch policy {value!r}; known: {known}")


def policy_label(policy: PrefetchPolicy, hw_prefetcher: Optional[str]) -> str:
    """The display name a run competes under (tournament tables)."""
    return hw_prefetcher if hw_prefetcher is not None else policy.value


def all_policy_names() -> Tuple[str, ...]:
    """Every name ``resolve_policy`` accepts (CLI ``--policy`` choices)."""
    return tuple(p.value for p in PrefetchPolicy) + zoo_names()


# ---------------------------------------------------------------------------
# The four shipped families.
# ---------------------------------------------------------------------------
register(ZooEntry(
    name="ghb_delta",
    family="ghb",
    description=(
        "GHB delta-correlation with countdown-calibrated degree "
        "(Arsenal-of-Prefetchers family)"
    ),
    recipe="python -m repro run mcf --policy ghb_delta --instructions 50000",
    schema={
        "ghb_size": 1024,
        "degree": 2,
        "calibration_interval": 2048,
    },
    build=GHBPrefetcher,
))

register(ZooEntry(
    name="adaptive_nextline",
    family="nextline",
    description=(
        "feedback-directed next-line: sweeps degrees, locks the best "
        "(ChampSim STATISTICS/BEST_DEGREE)"
    ),
    recipe=(
        "python -m repro run swim --policy adaptive_nextline "
        "--instructions 50000"
    ),
    schema={
        "stats_window": 256,
        "best_window": 8192,
        "max_degree": 4,
    },
    build=AdaptiveNextLinePrefetcher,
))

register(ZooEntry(
    name="triangel",
    family="temporal",
    description=(
        "Triangel-style temporal metadata table with confidence-"
        "filtered chained prefetch"
    ),
    recipe="python -m repro run mcf --policy triangel --instructions 50000",
    schema={
        "table_entries": 8192,
        "training_entries": 512,
        "chain_depth": 2,
    },
    build=TriangelPrefetcher,
))

register(ZooEntry(
    name="power7_reconfig",
    family="reconfig",
    description=(
        "POWER7-style runtime reconfigurator: stride engine whose "
        "depth switches per detected phase"
    ),
    recipe=(
        "python -m repro run art --policy power7_reconfig "
        "--instructions 50000"
    ),
    schema={
        "epoch_loads": 1024,
        "depths": (0, 1, 2, 4, 6),
        "stride_entries": 256,
    },
    build=PhaseReconfigPrefetcher,
))
