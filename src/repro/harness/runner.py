"""Simulation driver: couples workload, machine, hierarchy, Trident.

:class:`Simulation` assembles one run — a workload executing on the SMT
core over the cache hierarchy, with the hardware stream buffers and/or the
Trident runtime attached according to the
:class:`~repro.config.PrefetchPolicy` — and produces a
:class:`SimulationResult` holding every statistic the paper's figures
need.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Union

from ..config import (
    MachineConfig,
    PrefetchPolicy,
    SimulationConfig,
    TridentConfig,
)
from ..cpu.core import SMTCore
from ..errors import ConfigError
from ..faults.injector import FaultInjector
from ..faults.plan import FaultPlan
from ..faults.watchdog import Watchdog
from ..hwprefetch.stream_buffer import StreamBufferPrefetcher
from ..logutil import get_logger
from ..memory.hierarchy import MemoryHierarchy
from ..obs import Observer
from ..trident.runtime import TridentRuntime
from ..workloads.base import Workload
from ..workloads.registry import BENCHMARK_NAMES, load_workload

_log = get_logger("harness")


@dataclass(frozen=True)
class SimulationResult:
    """Everything measured in one run, as a plain value.

    The fields are exactly what :meth:`to_dict` carries, copied out of
    the live simulation once when the run completes: a result never
    aliases the simulator's counters, so resuming the same
    :class:`Simulation` to a larger budget cannot change an earlier
    result.  :meth:`from_dict` rebuilds this same class, and a replayed
    result compares equal (``==``) to the live one.
    """

    workload: str
    policy: PrefetchPolicy
    instructions: int
    cycles: float
    branch_mispredicts: int = 0
    loads_executed: int = 0
    misses_total: int = 0
    #: Per-PC demand-miss counts (Figure 4 input).
    miss_by_pc: Dict[int, int] = field(default_factory=dict)
    #: Figure-6 load-outcome fractions (see :meth:`breakdown`).
    load_breakdown: Dict[str, float] = field(default_factory=dict)
    #: Helper-thread activity as a fraction of total cycles (Figure 3).
    helper_active_fraction: float = 0.0
    helper_jobs: Dict[str, int] = field(default_factory=dict)
    traces_formed: int = 0
    traces_linked: int = 0
    dlt_events: int = 0
    prefetches_inserted: int = 0
    pointer_prefetches_inserted: int = 0
    repairs_applied: int = 0
    loads_matured: int = 0
    #: Fault-injection record (empty without a fault plan): events applied
    #: and the injector's chronological log.
    faults_applied: int = 0
    fault_log: tuple = ()
    #: Fraction of all demand-load misses that occurred inside hot traces
    #: and fraction attributable to prefetch-targeted loads (Figure 4).
    miss_trace_coverage: float = 0.0
    miss_prefetch_coverage: float = 0.0
    #: Load PCs that appeared in linked traces / got prefetches inserted.
    trace_load_pcs: frozenset = frozenset()
    targeted_load_pcs: frozenset = frozenset()
    #: Windowed time series (empty unless an observer with a sample
    #: interval was attached): tuple of ``Sample.to_dict()`` mappings.
    samples: tuple = ()

    def miss_profile(self) -> Dict[int, int]:
        """Per-PC demand-miss counts from this run (Figure 4 input)."""
        return dict(self.miss_by_pc)

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    def speedup_over(self, baseline: "SimulationResult") -> float:
        """This run's speedup relative to ``baseline`` (same workload)."""
        if baseline.ipc == 0:
            return 0.0
        return self.ipc / baseline.ipc

    def breakdown(self) -> Dict[str, float]:
        """Figure-6 load-outcome fractions."""
        return dict(self.load_breakdown)

    def to_dict(self) -> Dict:
        """JSON-serialisable summary (for tooling and the CLI)."""
        return {
            "workload": self.workload,
            "policy": self.policy.value,
            "instructions": self.instructions,
            "cycles": self.cycles,
            "ipc": self.ipc,
            "breakdown": self.breakdown(),
            "traces_formed": self.traces_formed,
            "traces_linked": self.traces_linked,
            "dlt_events": self.dlt_events,
            "prefetches_inserted": self.prefetches_inserted,
            "pointer_prefetches_inserted": self.pointer_prefetches_inserted,
            "repairs_applied": self.repairs_applied,
            "loads_matured": self.loads_matured,
            "helper_active_fraction": self.helper_active_fraction,
            "helper_jobs": dict(self.helper_jobs),
            "miss_trace_coverage": self.miss_trace_coverage,
            "miss_prefetch_coverage": self.miss_prefetch_coverage,
            "branch_mispredicts": self.branch_mispredicts,
            "loads_executed": self.loads_executed,
            "misses_total": self.misses_total,
            "faults_applied": self.faults_applied,
            "fault_log": [dict(entry) for entry in self.fault_log],
            "samples": [dict(sample) for sample in self.samples],
            # JSON object keys must be strings, so PCs are stringified;
            # sorted for stable serialisation.
            "miss_by_pc": {
                str(pc): self.miss_by_pc[pc] for pc in sorted(self.miss_by_pc)
            },
            "trace_load_pcs": sorted(self.trace_load_pcs),
            "targeted_load_pcs": sorted(self.targeted_load_pcs),
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "SimulationResult":
        """Rebuild a result from :meth:`to_dict` output (cache replay).

        The rebuilt result equals the original, and its own
        :meth:`to_dict` round-trips byte-identically (the differential
        test suite holds the engine to both).
        """
        return cls(
            workload=data["workload"],
            policy=PrefetchPolicy(data["policy"]),
            instructions=data["instructions"],
            cycles=data["cycles"],
            branch_mispredicts=data["branch_mispredicts"],
            loads_executed=data["loads_executed"],
            misses_total=data["misses_total"],
            miss_by_pc={
                int(pc): count
                for pc, count in data.get("miss_by_pc", {}).items()
            },
            load_breakdown=dict(data["breakdown"]),
            helper_active_fraction=data["helper_active_fraction"],
            helper_jobs=dict(data["helper_jobs"]),
            traces_formed=data["traces_formed"],
            traces_linked=data["traces_linked"],
            dlt_events=data["dlt_events"],
            prefetches_inserted=data["prefetches_inserted"],
            pointer_prefetches_inserted=data["pointer_prefetches_inserted"],
            repairs_applied=data["repairs_applied"],
            loads_matured=data["loads_matured"],
            faults_applied=data["faults_applied"],
            fault_log=tuple(dict(entry) for entry in data["fault_log"]),
            miss_trace_coverage=data["miss_trace_coverage"],
            miss_prefetch_coverage=data["miss_prefetch_coverage"],
            trace_load_pcs=frozenset(data.get("trace_load_pcs", ())),
            targeted_load_pcs=frozenset(data.get("targeted_load_pcs", ())),
            samples=tuple(dict(sample) for sample in data["samples"]),
        )


class Simulation:
    """One configured run of one workload."""

    def __init__(
        self,
        workload: Union[str, Workload],
        config: Optional[SimulationConfig] = None,
        initial_distance_mode: Optional[str] = None,
        fault_plan: Optional[FaultPlan] = None,
        observer: Optional[Observer] = None,
    ) -> None:
        self.config = config or SimulationConfig()
        if isinstance(workload, str):
            try:
                workload = load_workload(workload, seed=self.config.seed)
            except KeyError:
                raise ConfigError(
                    f"unknown workload {workload!r}; known: "
                    + ", ".join(BENCHMARK_NAMES)
                ) from None
        elif not isinstance(workload, Workload):
            raise ConfigError(
                f"workload must be a name or a Workload, got {workload!r}"
            )
        self.workload = workload

        machine = self.config.machine
        policy = self.config.policy

        self.hierarchy = MemoryHierarchy(machine)
        if policy.hardware_prefetching:
            if self.config.hw_prefetcher is not None:
                # A zoo policy replaces the stock stream buffers as the
                # hierarchy's hardware prefetcher (same hook, so the
                # fast/slow and resume/cold equivalences carry over).
                from ..hwprefetch.zoo import build_prefetcher

                self.hierarchy.stream_prefetcher = build_prefetcher(
                    self.config.hw_prefetcher, self.hierarchy
                )
            else:
                self.hierarchy.stream_prefetcher = StreamBufferPrefetcher(
                    machine.stream_buffers, self.hierarchy
                )

        self.runtime: Optional[TridentRuntime] = None
        if policy.software_prefetching:
            self.runtime = TridentRuntime(
                program=workload.program,
                machine=machine,
                trident=self.config.trident,
                policy=policy,
                overhead_only=self.config.overhead_only,
                initial_distance_mode=initial_distance_mode,
            )

        # Resilience layer: commit-stall detection is always armed (it is
        # nearly free and only pathological runs ever trip it); cycle and
        # wall-time ceilings come from the config.  A fault plan arms the
        # injector against this run's components.
        self.watchdog = Watchdog(
            max_cycles=self.config.max_cycles,
            wall_time_limit=self.config.wall_time_limit,
        )
        self.injector: Optional[FaultInjector] = None
        if fault_plan is not None:
            if not isinstance(fault_plan, FaultPlan):
                raise ConfigError(
                    f"fault_plan must be a FaultPlan, got {fault_plan!r}"
                )
            self.injector = FaultInjector(
                fault_plan, hierarchy=self.hierarchy, runtime=self.runtime
            )

        self.core = SMTCore(
            program=workload.program,
            memory=workload.memory,
            hierarchy=self.hierarchy,
            config=machine,
            runtime=self.runtime,
            fast=self.config.fast,
            injector=self.injector,
            watchdog=self.watchdog,
        )

        # Observability: one attach call wires every component's emit
        # hooks.  Without an observer every hook stays None and the hot
        # paths pay a single attribute check.
        self.observer = observer
        if observer is not None:
            if not isinstance(observer, Observer):
                raise ConfigError(
                    f"observer must be a repro.obs.Observer, got {observer!r}"
                )
            self.hierarchy.attach_observer(observer)
            self.core.obs = observer
            if self.runtime is not None:
                self.runtime.attach_observer(observer)
            if self.injector is not None:
                self.injector.obs = observer

        # Checkpointing (repro.checkpoint).  ``checkpoint_sink`` is a
        # callable given this Simulation at the end of the run and at
        # every ``config.checkpoint_every`` committed instructions; any
        # chunk boundary is a capture point, inside a fault window too.
        # It is attached by the engine or CLI *after* construction and
        # is never part of simulated state (a snapshot carries it as
        # None).
        self.checkpoint_sink = None
        # Measurement-start coordinates and the sampler boundary are
        # instance state (not ``run()`` locals) so a snapshot carries
        # them and ``resume()`` continues mid-stream.
        self._measure_start = (0, 0.0)
        self._next_sample_at: Optional[int] = None

    def __getstate__(self):
        """Snapshots never carry the sink (it closes over the store and
        is re-attached — or not — by whoever restores the snapshot), and
        the capture cadence is normalised away: it is a property of this
        run segment, not of simulated state.  Normalising lets runs with
        different cadences produce the same snapshot bytes at the same
        committed count."""
        state = dict(self.__dict__)
        state["checkpoint_sink"] = None
        if state["config"].checkpoint_every is not None:
            state["config"] = state["config"].replace(checkpoint_every=None)
        return state

    def _cumulative_counters(self) -> Dict[str, float]:
        """Cumulative counter readings for the interval sampler."""
        committed, cycles = self.core.snapshot()
        runtime = self.runtime
        return {
            "instructions": committed,
            "cycles": cycles,
            "loads": self.core.stats.loads_executed,
            "misses": self.core.stats.misses_total,
            "total_load_latency": self.hierarchy.stats.total_load_latency,
            "repairs": (
                runtime.optimizer.stats.repairs_applied if runtime else 0
            ),
            "dl_events": runtime.dlt.events_fired if runtime else 0,
        }

    def _record_sample(self) -> None:
        """Close the current sampler window and advance the boundary."""
        obs = self.observer
        sample = obs.sampler.record(**self._cumulative_counters())
        obs.emit(
            "sample",
            sample.end_cycle,
            index=sample.index,
            ipc=sample.ipc,
            miss_rate=sample.miss_rate,
            avg_access_latency=sample.avg_access_latency,
            repairs=sample.repairs,
            dl_events=sample.dl_events,
        )
        self._next_sample_at = (
            self.core.stats.committed + obs.sampler.interval
        )

    def _run_measured(self, target: int) -> None:
        """Run the core to ``target`` committed instructions, closing a
        sampler window every ``interval`` instructions and calling the
        checkpoint sink at every ``checkpoint_every`` mark and at the end
        (or a halt).

        Chunked ``SMTCore.run`` calls are bit-identical to one call (the
        resilience experiment has always relied on this), so sampling
        and checkpointing change only when we *look*, never what
        happens.  One capture-ordering rule keeps snapshots
        prefix-exact when a sampler is attached: a snapshot must equal
        the state a longer cold run has at the same committed count.
        At a window boundary (or a halt) the longer run records the
        same sample, so capture follows the record; at an unaligned
        end-of-run the longer run records nothing, so capture precedes
        the tail record.
        """
        core = self.core
        obs = self.observer
        sampler = obs.sampler if obs is not None else None
        sink = self.checkpoint_sink
        if sampler is None and sink is None:
            core.run(target)
            return
        interval = sampler.interval if sampler is not None else None
        every = self.config.checkpoint_every if sink is not None else None
        while not core.ctx.halted and core.stats.committed < target:
            # The sink's next call: the next cadence mark, or the end.
            capture_at = target
            if every:
                capture_at = min(
                    target, (core.stats.committed // every + 1) * every
                )
            stop = capture_at
            if interval is not None and self._next_sample_at < stop:
                stop = self._next_sample_at
            core.run(stop, drain=False)
            committed = core.stats.committed
            shared_boundary = False
            if interval is not None:
                shared_boundary = (
                    committed >= self._next_sample_at or core.ctx.halted
                )
                if shared_boundary:
                    self._record_sample()
            if sink is not None and (
                committed >= capture_at or core.ctx.halted
            ):
                sink(self)
            if (
                interval is not None
                and not shared_boundary
                and committed >= target
            ):
                self._record_sample()
        # The one drain the chunked calls skipped (see SMTCore.run).
        self.hierarchy.drain(int(core.cycles) + 1)

    def run(self) -> SimulationResult:
        """Execute the configured instruction budget and collect results."""
        cfg = self.config
        self._measure_start = (0, 0.0)
        if cfg.warmup_instructions > 0:
            self.core.run(cfg.warmup_instructions)
            self._measure_start = self.core.snapshot()
            # Measurement counters restart after warmup; cache, DLT,
            # trace, and repair state all persist (that is the point of
            # warming up).  Every stat holder resets *in place* — the
            # components cached references to these objects at construction
            # (and attach_observer time), so reassignment would silently
            # fork the accounting.
            self.core.stats.reset_measurement()
            self.hierarchy.stats.reset_measurement()
        obs = self.observer
        if obs is not None and obs.sampler is not None:
            obs.sampler.start(**self._cumulative_counters())
            self._next_sample_at = (
                self.core.stats.committed + obs.sampler.interval
            )
        return self._complete()

    def resume(
        self, max_instructions: Optional[int] = None
    ) -> SimulationResult:
        """Continue a restored run (see :mod:`repro.checkpoint`) to its
        — optionally raised — budget and collect results.

        Warmup, sampler start, and measurement-counter resets all
        happened before the snapshot was captured and are carried by it;
        this entry point only finishes the measured segment.  By the
        chunked-run invariant the outcome is byte-identical to a cold
        run at the same final budget.
        """
        cfg = self.config
        if max_instructions is not None:
            self.config = cfg = cfg.replace(
                max_instructions=max_instructions
            )
        target = cfg.warmup_instructions + cfg.max_instructions
        if self.core.stats.committed > target:
            raise ConfigError(
                f"cannot resume to {target} total instructions: the "
                f"snapshot is already at {self.core.stats.committed}"
            )
        return self._complete()

    def _complete(self) -> SimulationResult:
        """Run the measured segment to the configured budget and build
        the result (shared by :meth:`run` and :meth:`resume`)."""
        cfg = self.config
        start_committed, start_cycles = self._measure_start
        target = cfg.warmup_instructions + cfg.max_instructions
        self._run_measured(target)
        committed, cycles = self.core.snapshot()
        if self.injector is not None:
            self.injector.finish(cycles)
        stats = self.core.stats
        by_pc = stats.miss_count_by_pc

        # Copy every reported number out of the live components once:
        # the result is a value, so later resumes cannot reach it.
        values: Dict = dict(
            workload=self.workload.name,
            policy=cfg.policy,
            instructions=committed - start_committed,
            cycles=cycles - start_cycles,
            branch_mispredicts=stats.branch_mispredicts,
            loads_executed=stats.loads_executed,
            misses_total=stats.misses_total,
            miss_by_pc=dict(by_pc),
            load_breakdown=self.hierarchy.stats.breakdown(),
        )
        if self.injector is not None:
            values["faults_applied"] = self.injector.faults_applied
            values["fault_log"] = tuple(
                dict(entry) for entry in self.injector.log
            )
        if stats.misses_total:
            values["miss_trace_coverage"] = (
                stats.misses_in_traces / stats.misses_total
            )
        runtime = self.runtime
        if runtime is not None:
            opt = runtime.optimizer.stats
            targeted = frozenset(runtime.prefetch_targeted_pcs())
            values.update(
                helper_active_fraction=runtime.helper.active_fraction(
                    cycles
                ),
                helper_jobs=dict(runtime.helper.jobs_by_kind),
                traces_formed=runtime.traces_formed,
                traces_linked=runtime.traces_linked,
                dlt_events=runtime.dlt.events_fired,
                prefetches_inserted=opt.prefetches_inserted,
                pointer_prefetches_inserted=opt.pointer_prefetches_inserted,
                repairs_applied=opt.repairs_applied,
                loads_matured=opt.loads_matured,
                trace_load_pcs=frozenset(runtime.trace_load_pcs),
                targeted_load_pcs=targeted,
            )
            if stats.misses_total:
                covered = sum(
                    count for pc, count in by_pc.items() if pc in targeted
                )
                values["miss_prefetch_coverage"] = (
                    covered / stats.misses_total
                )
        obs = self.observer
        if obs is not None and obs.sampler is not None:
            values["samples"] = tuple(
                sample.to_dict() for sample in obs.sampler.samples
            )
        result = SimulationResult(**values)
        if obs is not None:
            # Consolidate the run's headline numbers into the registry so
            # --metrics-out is one self-contained document.
            obs.metrics.set_many(
                {
                    "run.ipc": result.ipc,
                    "run.instructions": result.instructions,
                    "run.cycles": result.cycles,
                    "run.traces_linked": result.traces_linked,
                    "run.repairs_applied": result.repairs_applied,
                    "run.loads_matured": result.loads_matured,
                    "run.helper_active_fraction": (
                        result.helper_active_fraction
                    ),
                    "run.faults_applied": result.faults_applied,
                }
            )
            _log.info(
                "run complete: %s/%s ipc=%.4f events=%d (%d dropped)",
                result.workload, cfg.policy.value, result.ipc,
                obs.ring.total_emitted, obs.ring.dropped,
            )
        return result


def run_simulation(
    workload: Union[str, Workload],
    policy: Union[PrefetchPolicy, str] = PrefetchPolicy.SELF_REPAIRING,
    machine: Optional[MachineConfig] = None,
    trident: Optional[TridentConfig] = None,
    max_instructions: int = 200_000,
    warmup_instructions: int = 0,
    overhead_only: bool = False,
    seed: int = 1,
    initial_distance_mode: Optional[str] = None,
    fault_plan: Optional[FaultPlan] = None,
    max_cycles: Optional[float] = None,
    wall_time_limit: Optional[float] = None,
    observer: Optional[Observer] = None,
    sample_interval: Optional[int] = None,
    fast: bool = True,
    hw_prefetcher: Optional[str] = None,
) -> SimulationResult:
    """Convenience one-call simulation (the quickstart entry point).

    ``workload`` accepts anything :func:`~repro.harness.engine.make_job`
    does — a builtin name, a ``scenario:``/``trace:`` reference, a
    ScenarioSpec or TraceSpec — or a hand-built
    :class:`~repro.workloads.base.Workload`.  ``policy`` accepts a
    :class:`~repro.config.PrefetchPolicy`, its string value, or a
    hardware-prefetcher zoo name (which runs as ``HW_ONLY`` with that
    engine — see :mod:`repro.hwprefetch.zoo`).

    Pass an :class:`~repro.obs.Observer` to collect metrics and trace
    events, or just ``sample_interval`` to get windowed IPC samples with
    a default observer.

    Raises :class:`~repro.errors.ConfigError` on invalid inputs and
    :class:`~repro.errors.SimulationStallError` when a watchdog budget
    (``max_cycles`` / ``wall_time_limit``) is exhausted mid-run.
    """
    from .engine import _execute_job, make_job

    built = workload if isinstance(workload, Workload) else None
    job = make_job(
        workload if built is None else built.name,
        policy=policy,
        machine=machine,
        trident=trident,
        max_instructions=max_instructions,
        warmup_instructions=warmup_instructions,
        overhead_only=overhead_only,
        seed=seed,
        initial_distance_mode=initial_distance_mode,
        fault_plan=fault_plan,
        max_cycles=max_cycles,
        wall_time_limit=wall_time_limit,
        sample_interval=sample_interval,
        fast=fast,
        hw_prefetcher=hw_prefetcher,
    )
    if built is None:
        return _execute_job(job, observer=observer)[0]
    if observer is None and sample_interval is not None:
        observer = Observer(sample_interval=sample_interval)
    return Simulation(
        built,
        job.config,
        initial_distance_mode=initial_distance_mode,
        fault_plan=fault_plan,
        observer=observer,
    ).run()
