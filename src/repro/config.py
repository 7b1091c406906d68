"""Configuration objects mirroring the paper's Tables 1 and 2.

:class:`MachineConfig` is the baseline SMT processor of Table 1,
:class:`TridentConfig` the monitoring hardware of Table 2, and
:class:`PrefetchPolicy` selects which of the paper's prefetching schemes is
active (the bars of Figure 5, plus the hardware-only and no-prefetch
baselines of Figures 2 and 9).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields as dataclass_fields, replace
from typing import Dict, Optional

from .errors import ConfigError


def _from_dict(cls, raw: Dict, nested: Optional[Dict[str, type]] = None):
    """Rebuild a (frozen) config dataclass from its ``asdict`` form.

    Unknown keys are ignored (a journal written by a newer build still
    resumes on an older one); missing keys take the dataclass default;
    nested dataclasses recurse.  Validation stays where it lives — in
    each class's ``__post_init__``.
    """
    if not isinstance(raw, dict):
        raise ConfigError(
            f"{cls.__name__} must be rebuilt from a dict, got {raw!r}"
        )
    nested = nested or {}
    kwargs = {}
    for spec in dataclass_fields(cls):
        if spec.name not in raw:
            continue
        value = raw[spec.name]
        if spec.name in nested and isinstance(value, dict):
            nested_cls = nested[spec.name]
            rebuild = getattr(nested_cls, "from_dict", None)
            value = (
                rebuild(value) if rebuild is not None
                else _from_dict(nested_cls, value)
            )
        kwargs[spec.name] = value
    return cls(**kwargs)


class PrefetchPolicy(enum.Enum):
    """Which prefetching scheme the simulation runs.

    * ``NONE`` — no prefetching of any kind (Figure 2 leftmost baseline).
    * ``HW_ONLY`` — hardware stream buffers only (Figure 2 / the paper's
      performance baseline).
    * ``BASIC`` — hardware buffers + dynamic software prefetching with the
      one-shot estimated distance of equation (2) (Figure 5, first bar;
      the ADORE-style comparator).
    * ``WHOLE_OBJECT`` — BASIC plus same-object group prefetching
      (Figure 5, second bar).
    * ``SELF_REPAIRING`` — whole-object insertion with adaptive distance
      repair starting from distance 1 (Figure 5, third bar; the paper's
      contribution).
    * ``SW_ONLY`` — self-repairing software prefetching with the hardware
      stream buffers disabled (Figure 9 comparison).
    * ``TRACE_ONLY`` — Trident forms and links hot traces and the DLT
      monitors their loads, but no prefetches are ever inserted
      (measurement configuration for Figure 4's coverage question).
    """

    NONE = "none"
    HW_ONLY = "hw_only"
    BASIC = "basic"
    WHOLE_OBJECT = "whole_object"
    SELF_REPAIRING = "self_repairing"
    SW_ONLY = "sw_only"
    TRACE_ONLY = "trace_only"

    # The predicates test membership in module-level tuples: ``in``
    # matches members by identity first, and reading a member through
    # the class (``PrefetchPolicy.BASIC``) costs an Enum descriptor call
    # per read on CPython 3.11 (DESIGN.md §5c‴).
    @property
    def software_prefetching(self) -> bool:
        """True when the Trident runtime (traces + DLT) is active."""
        return self in SOFTWARE_PREFETCHING_POLICIES

    @property
    def inserts_prefetches(self) -> bool:
        """True when delinquent loads actually earn prefetch instructions."""
        return self in _INSERTING_POLICIES

    @property
    def hardware_prefetching(self) -> bool:
        """True when the stream buffers are active."""
        return self not in _NO_HARDWARE_POLICIES

    @property
    def adaptive_repair(self) -> bool:
        """True when prefetch distances are repaired at runtime."""
        return self in _REPAIRING_POLICIES

    @property
    def same_object_grouping(self) -> bool:
        """True when same-object groups share prefetches (section 3.4.2)."""
        return self in _GROUPING_POLICIES


#: Policies that attach the Trident runtime (traces + DLT).
SOFTWARE_PREFETCHING_POLICIES = (
    PrefetchPolicy.BASIC,
    PrefetchPolicy.WHOLE_OBJECT,
    PrefetchPolicy.SELF_REPAIRING,
    PrefetchPolicy.SW_ONLY,
    PrefetchPolicy.TRACE_ONLY,
)
_INSERTING_POLICIES = (
    PrefetchPolicy.BASIC,
    PrefetchPolicy.WHOLE_OBJECT,
    PrefetchPolicy.SELF_REPAIRING,
    PrefetchPolicy.SW_ONLY,
)
_NO_HARDWARE_POLICIES = (PrefetchPolicy.NONE, PrefetchPolicy.SW_ONLY)
_REPAIRING_POLICIES = (PrefetchPolicy.SELF_REPAIRING, PrefetchPolicy.SW_ONLY)
_GROUPING_POLICIES = (
    PrefetchPolicy.WHOLE_OBJECT,
    PrefetchPolicy.SELF_REPAIRING,
    PrefetchPolicy.SW_ONLY,
    PrefetchPolicy.TRACE_ONLY,
)


@dataclass(frozen=True)
class StreamBufferConfig:
    """Hardware stream-buffer prefetcher parameters (Table 1, last row)."""

    num_buffers: int = 8
    entries_per_buffer: int = 8
    history_table_entries: int = 1024
    #: Stride-predictor confidence needed before a buffer is allocated.
    allocation_confidence: int = 2
    #: Entries in the stride-filtered Markov table (the PSB second level,
    #: Sherwood et al.).  0 disables it — the paper's Table-1 baseline is
    #: stride-guided only; `ablation_markov` measures the second level.
    markov_entries: int = 0

    @staticmethod
    def paper_4x4() -> "StreamBufferConfig":
        return StreamBufferConfig(num_buffers=4, entries_per_buffer=4)

    @staticmethod
    def paper_8x8() -> "StreamBufferConfig":
        return StreamBufferConfig(num_buffers=8, entries_per_buffer=8)


@dataclass(frozen=True)
class CacheConfig:
    """One cache level: geometry plus hit latency."""

    size_bytes: int
    associativity: int
    latency: int
    line_size: int = 64

    def __post_init__(self) -> None:
        line = self.line_size
        if not isinstance(line, int) or line <= 0 or line & (line - 1):
            raise ConfigError(
                f"cache line size must be a positive power of two, "
                f"got {line!r}"
            )
        ways = self.associativity
        if not isinstance(ways, int) or ways < 1:
            raise ConfigError(
                f"cache associativity must be a positive integer, "
                f"got {ways!r}"
            )
        if self.size_bytes < line * ways:
            raise ConfigError(
                f"cache of {self.size_bytes!r} bytes is too small for one "
                f"set of {ways} {line}-byte lines"
            )

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.line_size * self.associativity)


@dataclass(frozen=True)
class MachineConfig:
    """The baseline SMT processor of Table 1, plus timing-model knobs.

    The timing-model knobs (``mispredict_penalty``, ``bus_transfer_cycles``,
    ``helper_interference``, ``helper_startup_cycles``) have no row in
    Table 1; they parameterise the dataflow timing model that stands in
    for the out-of-order core SMTSIM simulates cycle by cycle (see
    :mod:`repro.cpu.core`).
    """

    issue_width: int = 4
    fetch_width: int = 4
    pipeline_depth: int = 20
    rob_entries: int = 256
    hardware_contexts: int = 2

    l1: CacheConfig = field(
        default_factory=lambda: CacheConfig(64 * 1024, 2, 3)
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(512 * 1024, 8, 11)
    )
    l3: CacheConfig = field(
        default_factory=lambda: CacheConfig(4 * 1024 * 1024, 16, 35)
    )
    memory_latency: int = 350

    stream_buffers: StreamBufferConfig = field(
        default_factory=StreamBufferConfig.paper_8x8
    )

    #: Cycles one cache-line fill occupies the memory bus (Table 1's
    #: "memory timing and bus occupancy"); fills serialise on the bus, so
    #: over-aggressive prefetching delays demand fills.
    bus_transfer_cycles: int = 4

    # --- timing-model substitutes for the OOO core (see DESIGN.md §2) ---
    #: Flat pipeline-refill penalty for a mispredicted branch.
    mispredict_penalty: int = 14
    #: Multiplier (> 1) on main-thread issue cost while the helper thread
    #: occupies the second context (shared fetch/issue bandwidth).
    helper_interference: float = 1.05
    #: Cycles to spin up the helper thread (paper section 4.3: 2000).
    helper_startup_cycles: int = 2000

    @property
    def line_size(self) -> int:
        return self.l1.line_size

    @property
    def l2_miss_latency(self) -> int:
        """Latency of a load that misses in L2 (i.e. an L3 hit).

        The delinquency test of section 3.3 compares a load's average miss
        latency against half of this value.
        """
        return self.l3.latency

    @staticmethod
    def paper_baseline() -> "MachineConfig":
        """Table 1 exactly (with the 8x8 stream buffers)."""
        return MachineConfig()

    @staticmethod
    def from_dict(raw: Dict) -> "MachineConfig":
        return _from_dict(
            MachineConfig,
            raw,
            nested={
                "l1": CacheConfig,
                "l2": CacheConfig,
                "l3": CacheConfig,
                "stream_buffers": StreamBufferConfig,
            },
        )

    def with_stream_buffers(self, sb: StreamBufferConfig) -> "MachineConfig":
        return replace(self, stream_buffers=sb)

    def with_l1_size(self, size_bytes: int) -> "MachineConfig":
        """Return a copy with a different L1 capacity (section 5.4)."""
        return replace(
            self,
            l1=CacheConfig(
                size_bytes,
                self.l1.associativity,
                self.l1.latency,
                self.l1.line_size,
            ),
        )


@dataclass(frozen=True)
class DLTConfig:
    """Delinquent Load Table parameters (Table 2, bottom block)."""

    entries: int = 1024
    associativity: int = 2
    #: Load monitoring window: accesses per delinquency evaluation.
    access_window: int = 256
    #: Misses within a window needed to classify as delinquent (8/256 = 3%).
    miss_threshold: int = 8
    #: Stride-confidence counter parameters (section 3.3).
    confidence_max: int = 15
    confidence_up: int = 1
    confidence_down: int = 7

    @property
    def miss_rate_threshold(self) -> float:
        return self.miss_threshold / self.access_window

    def with_miss_rate(self, rate: float) -> "DLTConfig":
        """Return a copy whose miss threshold approximates ``rate``."""
        threshold = max(1, round(rate * self.access_window))
        return replace(self, miss_threshold=threshold)

    def with_window(self, window: int) -> "DLTConfig":
        """Return a copy with a different monitoring window, keeping the
        configured miss *rate* constant (as Figure 7 sweeps do)."""
        threshold = max(1, round(self.miss_rate_threshold * window))
        return replace(self, access_window=window, miss_threshold=threshold)

    def with_entries(self, entries: int) -> "DLTConfig":
        return replace(self, entries=entries)


@dataclass(frozen=True)
class TridentConfig:
    """Trident monitoring hardware (Table 2) and trace-formation limits."""

    # Branch profiler.
    profiler_entries: int = 256
    profiler_associativity: int = 4
    profiler_counter_bits: int = 4
    #: Three standalone 16-bit direction bitmaps => up to 48 recorded
    #: branches per captured trace.
    capture_bitmap_branches: int = 48

    # Watch table.
    watch_table_entries: int = 256

    # Trace formation limits.
    max_trace_instructions: int = 256

    dlt: DLTConfig = field(default_factory=DLTConfig)

    #: Helper-thread cost model: cycles charged per trace instruction
    #: processed by the optimizer (on top of the 2000-cycle startup).
    optimizer_cycles_per_instruction: int = 40
    #: Cycles charged for an in-place prefetch repair (much cheaper than
    #: regenerating a trace — the point of section 3.5.1).
    repair_cycles: int = 400

    #: Repair-budget multiplier: a record's distance search gets
    #: ``multiplier × max distance`` repair steps before maturing
    #: (section 3.5.2; the paper uses 2).  A real config field — rather
    #: than the monkeypatch the ablation used to apply — so the budget
    #: sweep is process-safe and content-addressable by the result cache.
    repair_budget_multiplier: float = 2.0

    # Trace backout (Trident's watch-table duty: "identify and back out
    # of hot traces that are under-performing").
    #: Executions observed before a trace is judged.
    backout_min_executions: int = 64
    #: Minimum completed-execution ratio; below it the trace is unlinked.
    backout_completion_threshold: float = 0.35
    #: Recapture attempts per head before the head is blacklisted.
    backout_max_retries: int = 2

    # Phase-aware mature clearing (the future work of section 3.5.2:
    # "clearing the mature flag when there is a working set or phase
    # change").  Off by default — the paper did not evaluate it.
    phase_detection: bool = False
    #: Trace loads per phase-observation interval.
    phase_interval_loads: int = 8192
    #: Relative miss-rate shift that declares a phase change.
    phase_shift_threshold: float = 0.5

    @staticmethod
    def paper_default() -> "TridentConfig":
        return TridentConfig()

    @staticmethod
    def from_dict(raw: Dict) -> "TridentConfig":
        return _from_dict(TridentConfig, raw, nested={"dlt": DLTConfig})

    def with_dlt(self, dlt: DLTConfig) -> "TridentConfig":
        return replace(self, dlt=dlt)

    def with_repair_budget(self, multiplier: float) -> "TridentConfig":
        return replace(self, repair_budget_multiplier=multiplier)


@dataclass(frozen=True)
class SimulationConfig:
    """Everything a single simulation run needs.

    Construction validates the run budgets and coerces a policy given as
    its string value; invalid inputs raise
    :class:`~repro.errors.ConfigError` here, at the surface, instead of a
    deep-stack ``KeyError`` or a silent zero-cycle result later.
    """

    machine: MachineConfig = field(default_factory=MachineConfig)
    trident: TridentConfig = field(default_factory=TridentConfig)
    policy: PrefetchPolicy = PrefetchPolicy.SELF_REPAIRING
    #: Stop after this many committed main-thread instructions.
    max_instructions: int = 200_000
    #: Instructions executed before statistics collection begins (the
    #: paper warms up for 5M of its 100M).
    warmup_instructions: int = 0
    #: Section 5.1 mode: run the optimizer but never link its traces.
    overhead_only: bool = False
    #: RNG seed for workload data layout.
    seed: int = 1
    #: Watchdog budgets (see repro.faults.watchdog): simulated-cycle and
    #: host wall-time ceilings for the whole run, warmup included.  None
    #: disables the ceiling; commit-stall detection is always armed.
    max_cycles: Optional[float] = None
    wall_time_limit: Optional[float] = None
    #: Use the pre-decoded fast interpreter (repro.cpu.fastpath).  The
    #: slow generic loop (``fast=False``) is kept as the differential
    #: reference; both produce byte-identical results.  Part of the
    #: config (and thus the result-cache key) so cached fast and slow
    #: runs never alias.
    fast: bool = True
    #: Capture a resumable snapshot every N committed instructions (see
    #: repro.checkpoint) in addition to the end-of-run capture a
    #: checkpoint sink always attempts.  None captures only at the end.
    #: Cadence can never change simulated state (captures happen at
    #: chunk boundaries, which are proven state-neutral), so this field
    #: is **excluded** from the job spec the result cache hashes — runs
    #: differing only in cadence share results and checkpoints.
    checkpoint_every: Optional[int] = None
    #: Hardware-prefetcher zoo policy name (repro.hwprefetch.zoo): when
    #: set, the named engine replaces the stock stream buffers as the
    #: hierarchy's hardware prefetcher.  Only meaningful when ``policy``
    #: enables hardware prefetching; ``None`` (the default) keeps the
    #: paper's stream buffers.  The job spec omits this field when None,
    #: so pre-zoo cache keys, journal job_keys, and checkpoint prefixes
    #: are byte-unchanged.
    hw_prefetcher: Optional[str] = None

    def __post_init__(self) -> None:
        policy = self.policy
        if isinstance(policy, str):
            try:
                policy = PrefetchPolicy(policy)
            except ValueError:
                known = ", ".join(p.value for p in PrefetchPolicy)
                raise ConfigError(
                    f"unknown prefetch policy {self.policy!r}; known: {known}"
                ) from None
            object.__setattr__(self, "policy", policy)
        elif not isinstance(policy, PrefetchPolicy):
            raise ConfigError(
                f"policy must be a PrefetchPolicy, got {policy!r}"
            )
        if not isinstance(self.machine, MachineConfig):
            raise ConfigError(
                f"machine must be a MachineConfig, got {self.machine!r}"
            )
        if not isinstance(self.trident, TridentConfig):
            raise ConfigError(
                f"trident must be a TridentConfig, got {self.trident!r}"
            )
        if not isinstance(self.max_instructions, int) or self.max_instructions <= 0:
            raise ConfigError(
                "max_instructions must be a positive integer, got "
                f"{self.max_instructions!r}"
            )
        if (
            not isinstance(self.warmup_instructions, int)
            or self.warmup_instructions < 0
        ):
            raise ConfigError(
                "warmup_instructions must be a non-negative integer, got "
                f"{self.warmup_instructions!r}"
            )
        if not isinstance(self.seed, int):
            raise ConfigError(f"seed must be an integer, got {self.seed!r}")
        if not isinstance(self.fast, bool):
            raise ConfigError(f"fast must be a bool, got {self.fast!r}")
        if self.checkpoint_every is not None and (
            not isinstance(self.checkpoint_every, int)
            or self.checkpoint_every <= 0
        ):
            raise ConfigError(
                "checkpoint_every must be a positive integer or None, "
                f"got {self.checkpoint_every!r}"
            )
        if self.hw_prefetcher is not None:
            if not isinstance(self.hw_prefetcher, str):
                raise ConfigError(
                    "hw_prefetcher must be a zoo policy name or None, "
                    f"got {self.hw_prefetcher!r}"
                )
            # Imported lazily: the zoo imports this module at its top.
            from .hwprefetch.zoo import zoo_names

            if self.hw_prefetcher not in zoo_names():
                known = ", ".join(zoo_names())
                raise ConfigError(
                    f"unknown hardware prefetcher {self.hw_prefetcher!r}; "
                    f"known: {known}"
                )
            if not self.policy.hardware_prefetching:
                raise ConfigError(
                    f"hw_prefetcher={self.hw_prefetcher!r} needs a policy "
                    "with hardware prefetching enabled, got "
                    f"{self.policy.value!r}"
                )
        for name in ("max_cycles", "wall_time_limit"):
            value = getattr(self, name)
            if value is None:
                continue
            if not isinstance(value, (int, float)) or value <= 0:
                raise ConfigError(
                    f"{name} must be a positive number or None, got {value!r}"
                )

    def replace(self, **kwargs) -> "SimulationConfig":
        return replace(self, **kwargs)

    @staticmethod
    def from_dict(raw: Dict) -> "SimulationConfig":
        """Rebuild a config from its JSON-able job-spec form (the policy
        arrives as its string value; ``__post_init__`` coerces it)."""
        return _from_dict(
            SimulationConfig,
            raw,
            nested={"machine": MachineConfig, "trident": TridentConfig},
        )
