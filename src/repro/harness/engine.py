"""Parallel experiment engine: job specs, fan-out, and result caching.

Every paper figure and ablation is a grid of independent, deterministic
simulations.  The engine turns that grid into explicit :class:`SimJob`
specs and satisfies each one in one of three ways, proven equivalent by
``tests/test_engine_equivalence.py``:

* **in-process** (``workers=1``, or a lone pending job without chaos) —
  each job runs exactly like the legacy ``run_simulation`` call it
  replaces.  With checkpoints on, the same-prefix chains of the
  supervised path run back to back (ascending budgets within a chain),
  so each job resumes from its predecessor's snapshot while the
  workload registry still holds that workload's image; without
  checkpoints, jobs run in ascending budget order;
* **supervised** (everything else) — same-prefix chains fan out over
  :class:`~repro.harness.supervisor.WorkerSupervisor` processes, which
  stream results back as they finish and reclaim crashed or hung
  workers; outcomes land at their submission index, so output never
  depends on completion order.  Chains that share a workload image are
  packed into one unit, split only to fill the last round of workers,
  so a sweep builds each image about once;
* **cached** — a :class:`~repro.harness.cache.ResultCache` hit replays
  the stored ``SimulationResult.to_dict()`` without simulating at all.

Because jobs are content-addressed, the HW_ONLY baseline a dozen sweeps
share is simulated once per (workload, budget) and replayed everywhere
else — the figure suite drops from hours to minutes.

Worker processes deliberately attach **no observer** unless the job asks
for interval sampling (``sample_interval``): observation hooks are off
by default in children, which cannot perturb results — the obs layer
never touches simulated timing (DESIGN.md §5b) — but keeps the pickled
result payload small.  Trace/metrics *export* needs the live observer
object, so an exporting caller runs its job in-process through the same
:func:`_execute_job` seam, handing it its own observer.

Error isolation is per job (:func:`_worker`): a failing job becomes an
error record (transient failures earn one retry), and
:func:`group_outcomes` drops just that group's rows from a figure.
"""

from __future__ import annotations

import dataclasses
import enum
import gc
import time
from dataclasses import dataclass
from typing import (
    Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union,
)

from ..config import (
    MachineConfig,
    PrefetchPolicy,
    SimulationConfig,
    TridentConfig,
)
from ..errors import (
    CheckpointError,
    ConfigError,
    ReproError,
    WorkerCrashError,
)
from ..faults.plan import FaultPlan
from ..logutil import get_logger
from ..obs import MetricsRegistry, Observer
from ..obs.spans import SpanRecorder, TraceContext
from ..obs.telemetry import format_engine_summary
from .cache import ResultCache
from .journal import job_key
from . import runner
from .runner import SimulationResult

_log = get_logger("engine")

#: Sentinel distinguishing "use the default cache" from "no cache".
_DEFAULT_CACHE = object()


@dataclass(frozen=True)
class SimJob:
    """One simulation, fully specified and content-addressable.

    ``group`` names the error-isolation unit (default: the workload) —
    when any job of a group fails, :func:`group_outcomes` drops the
    whole group's rows.
    """

    workload: str
    config: SimulationConfig
    initial_distance_mode: Optional[str] = None
    fault_plan: Optional[FaultPlan] = None
    #: Attach an interval sampler in the worker (windowed IPC series on
    #: ``result.samples``); part of the cache key since it changes the
    #: result payload.
    sample_interval: Optional[int] = None
    group: str = ""
    #: Serialised ScenarioSpec when this job's workload is a DSL
    #: scenario (``workload`` then holds the scenario's name).
    scenario: Optional[Dict] = None
    #: Serialised TraceSpec when this job replays an external trace.
    trace: Optional[Dict] = None

    def spec(self) -> Dict:
        """The canonical JSON-able description hashed into the cache key.

        Computed once per job and shared by every caller (cache, journal
        and checkpoint keys), so callers must not modify it;
        :meth:`to_dict` extends a copy.

        ``checkpoint_every`` is excluded: checkpoint cadence changes when
        the run *pauses to look*, never what it computes (chunked
        ``SMTCore.run`` calls are bit-identical to one call), so two jobs
        differing only in cadence must share one cache entry.

        Scenario/trace sources appear only when present, so builtin
        jobs keep their historical spec (cache entries, journal keys,
        and checkpoint prefixes all survive this field's addition).
        The trace's ``path`` is dropped: identity is the content hash.
        ``hw_prefetcher`` likewise appears only when a zoo policy is
        selected — every pre-zoo job spec hashes byte-identically
        (``tests/test_spec_hashes.py`` pins this).
        """
        spec = self.__dict__.get("_spec")
        if spec is not None:
            return spec
        config = _jsonify(dataclasses.asdict(self.config))
        config.pop("checkpoint_every", None)
        if config.get("hw_prefetcher") is None:
            config.pop("hw_prefetcher", None)
        payload = {
            "workload": self.workload,
            "config": config,
            "initial_distance_mode": self.initial_distance_mode,
            "fault_plan": (
                None if self.fault_plan is None else self.fault_plan.to_dict()
            ),
            "sample_interval": self.sample_interval,
        }
        if self.scenario is not None:
            payload["scenario"] = self.scenario
        if self.trace is not None:
            payload["trace"] = {
                k: v for k, v in self.trace.items() if k != "path"
            }
        # A frozen dataclass: store the memo past its __setattr__.
        object.__setattr__(self, "_spec", payload)
        return payload

    @property
    def source(self) -> str:
        """Where the workload comes from: builtin, scenario, or trace."""
        if self.scenario is not None:
            return "scenario"
        if self.trace is not None:
            return "trace"
        return "builtin"

    def total_budget(self) -> int:
        """Warmup + measured instructions (the resume-ordering key)."""
        return (
            self.config.warmup_instructions + self.config.max_instructions
        )

    def to_dict(self) -> Dict:
        """The full job as JSON — ``spec()`` plus the fields the cache
        key deliberately omits — so a journal can rebuild it."""
        payload = dict(self.spec())
        payload["group"] = self.group
        payload["checkpoint_every"] = self.config.checkpoint_every
        if self.trace is not None:
            # Workers need the path; spec() deliberately dropped it.
            payload["trace"] = dict(self.trace)
        return payload

    @staticmethod
    def from_dict(raw: Dict) -> "SimJob":
        """Rebuild a job from :meth:`to_dict` (``resume-sweep``'s path)."""
        if not isinstance(raw, dict) or "workload" not in raw:
            raise ReproError(f"not a serialised SimJob: {raw!r}")
        config_raw = dict(raw.get("config") or {})
        if raw.get("checkpoint_every") is not None:
            config_raw["checkpoint_every"] = raw["checkpoint_every"]
        config = SimulationConfig.from_dict(config_raw)
        fault_raw = raw.get("fault_plan")
        return SimJob(
            workload=raw["workload"],
            config=config,
            initial_distance_mode=raw.get("initial_distance_mode"),
            fault_plan=(
                None if fault_raw is None else FaultPlan.from_dict(fault_raw)
            ),
            sample_interval=raw.get("sample_interval"),
            group=raw.get("group", ""),
            scenario=raw.get("scenario"),
            trace=raw.get("trace"),
        )


def _jsonify(value):
    """Recursively reduce to JSON-safe types (enums to values)."""
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    return value


def make_job(
    workload,
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
    sample_interval: Optional[int] = None,
    fast: bool = True,
    checkpoint_every: Optional[int] = None,
    group: str = "",
    hw_prefetcher: Optional[str] = None,
) -> SimJob:
    """Build a :class:`SimJob`: the one place where run arguments
    become a :class:`~repro.config.SimulationConfig`.

    ``workload`` accepts a builtin benchmark name, a ``scenario:<name
    or file>`` / ``trace:<file>`` reference, or a ScenarioSpec /
    TraceSpec object — external sources are normalised into the job's
    ``scenario``/``trace`` fields here, once, so everything downstream
    (cache, journal, checkpoints, workers) sees plain data.

    ``policy`` additionally accepts a hardware-prefetcher zoo name
    (see :mod:`repro.hwprefetch.zoo`), which becomes ``HW_ONLY`` with
    ``hw_prefetcher`` set to that name; naming a different
    ``hw_prefetcher`` alongside it raises :class:`ConfigError`.
    """
    from ..hwprefetch.zoo import resolve_policy

    policy, zoo_name = resolve_policy(policy)
    if zoo_name is not None:
        if hw_prefetcher is not None and hw_prefetcher != zoo_name:
            raise ConfigError(
                f"policy {zoo_name!r} conflicts with "
                f"hw_prefetcher={hw_prefetcher!r}"
            )
        hw_prefetcher = zoo_name
    scenario = trace = None
    if not isinstance(workload, str) or ":" in workload:
        from ..scenarios import resolve_job_source

        ref = workload if isinstance(workload, str) else None
        workload, scenario, trace = resolve_job_source(workload)
        if not group and ref is not None:
            # Figures group/look up rows by the reference string they
            # were handed; keep that identity as the isolation group.
            group = ref
    config = SimulationConfig(
        machine=machine or MachineConfig(),
        trident=trident or TridentConfig(),
        policy=policy,
        max_instructions=max_instructions,
        warmup_instructions=warmup_instructions,
        overhead_only=overhead_only,
        seed=seed,
        max_cycles=max_cycles,
        wall_time_limit=wall_time_limit,
        fast=fast,
        checkpoint_every=checkpoint_every,
        hw_prefetcher=hw_prefetcher,
    )
    return SimJob(
        workload=workload,
        config=config,
        initial_distance_mode=initial_distance_mode,
        fault_plan=fault_plan,
        sample_interval=sample_interval,
        group=group,
        scenario=scenario,
        trace=trace,
    )


@dataclass
class JobOutcome:
    """What happened to one job: a result or an error record, never both."""

    result: Optional[SimulationResult] = None
    error: Optional[Dict] = None
    cached: bool = False
    elapsed_s: float = 0.0
    #: Committed-instruction count of the checkpoint this run resumed
    #: from (None: ran cold or replayed from the result cache).
    resumed_from: Optional[int] = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class EngineStats:
    """Cumulative counters over every ``run()`` of one engine."""

    jobs_run: int = 0
    jobs_cached: int = 0
    jobs_failed: int = 0
    #: Jobs that resumed from a stored checkpoint instead of running
    #: their whole prefix cold.
    jobs_resumed: int = 0
    #: Jobs reclaimed from a dead or lease-expired worker (supervisor).
    leases_reclaimed: int = 0
    #: Re-dispatches of reclaimed jobs.
    jobs_retried: int = 0
    #: Jobs quarantined as poison after repeated strikes.
    jobs_quarantined: int = 0
    #: Sum of the original wall time of every cache hit.
    wall_time_saved_s: float = 0.0
    wall_time_spent_s: float = 0.0

    def summary(self) -> str:
        """One-line fleet summary, through the single shared formatter
        (:func:`repro.obs.telemetry.format_engine_summary`) so this
        line and the fleet gauges can never disagree."""
        return format_engine_summary(
            {
                "run": self.jobs_run,
                "cached": self.jobs_cached,
                "resumed": self.jobs_resumed,
                "failed": self.jobs_failed,
                "reclaimed": self.leases_reclaimed,
                "retried": self.jobs_retried,
                "quarantined": self.jobs_quarantined,
                "spent": self.wall_time_spent_s,
                "saved": self.wall_time_saved_s,
            }
        )


def _execute_job(
    job: SimJob,
    ckpt_root: Optional[str] = None,
    resume_ok: bool = True,
    recorder: Optional[SpanRecorder] = None,
    context: Optional[TraceContext] = None,
    observer: Optional[Observer] = None,
) -> Tuple[SimulationResult, float, Optional[int]]:
    """Run one job to completion (no isolation).

    Returns ``(result, seconds, resumed_from)``.  With a checkpoint root,
    the job first looks for the largest stored snapshot of its own prefix
    at or before its budget and resumes from it — byte-identical to the
    cold run by the chunked-execution invariant — and offers its own
    snapshots back to the store as it runs.  Any checkpoint problem
    (corrupt file, stale stamp) silently degrades to a cold run.

    This is the single simulation seam for the in-process path,
    supervised workers, ``run_simulation`` and the CLI's exports.
    Workers call it through this module's global so a patch made before
    the fork reaches them; the baseline-reuse regression test counts
    invocations through ``runner.Simulation``.  A caller that exports
    the run's event stream passes its own ``observer``.
    """
    from ..checkpoint import CheckpointStore, restore as restore_snapshot

    if observer is None and job.sample_interval is not None:
        observer = Observer(sample_interval=job.sample_interval)
        if recorder is not None:
            # Live windowed IPC/miss-rate: each closed sample window is
            # forwarded through the recorder (and, supervised, over the
            # worker pipe) the moment it closes.
            observer.sample_sink = recorder.sample_sink(context)
    started = time.perf_counter()
    store: Optional[CheckpointStore] = None
    prefix = None
    if ckpt_root is not None:
        store = CheckpointStore(ckpt_root)
        prefix = store.prefix_key(job.spec())
    sim = None
    resumed_from: Optional[int] = None
    if store is not None and resume_ok:
        snapshot = store.best(prefix, job.total_budget())
        if snapshot is not None:
            restore_span = (
                recorder.begin("checkpoint-restore", context)
                if recorder is not None
                else None
            )
            try:
                sim = restore_snapshot(snapshot)
            except CheckpointError as exc:
                _log.debug("checkpoint restore failed, running cold: %s", exc)
                if restore_span is not None:
                    recorder.end(restore_span, ok=False)
            else:
                resumed_from = snapshot.committed
                if restore_span is not None:
                    recorder.end(
                        restore_span, ok=True, committed=snapshot.committed
                    )
    ckpt_sink = None
    if store is not None:
        if recorder is None:
            ckpt_sink = lambda s: store.save(prefix, s)  # noqa: E731
        else:
            def ckpt_sink(s, _store=store, _prefix=prefix):
                if _store.save(_prefix, s):
                    recorder.instant(
                        "checkpoint-capture",
                        context,
                        committed=s.core.stats.committed,
                    )
    run_span = None
    if recorder is not None:
        run_span = recorder.begin(
            "run",
            context,
            workload=job.workload,
            policy=job.config.policy.value,
            budget=job.total_budget(),
            resumed_from=resumed_from,
            source=job.source,
        )
    try:
        if sim is None:
            workload = job.workload
            if job.scenario is not None or job.trace is not None:
                # External sources travel as data on the job; the
                # runnable Workload is rebuilt here, in whatever
                # process executes the job (Simulation accepts the
                # object in place of a registry name).
                from ..scenarios import materialize_workload

                workload = materialize_workload(
                    job.scenario, job.trace, job.config.seed
                )
            sim = runner.Simulation(
                workload,
                job.config,
                initial_distance_mode=job.initial_distance_mode,
                fault_plan=job.fault_plan,
                observer=observer,
            )
            if ckpt_sink is not None:
                sim.checkpoint_sink = ckpt_sink
            result = sim.run()
        else:
            # The snapshot carries the observer (and its partial sample
            # series) from the prefix run; only the sink and the cadence —
            # normalised away at capture — need re-attaching.
            if recorder is not None and sim.observer is not None:
                sim.observer.sample_sink = recorder.sample_sink(context)
            sim.checkpoint_sink = ckpt_sink
            if job.config.checkpoint_every is not None:
                sim.config = sim.config.replace(
                    checkpoint_every=job.config.checkpoint_every
                )
            result = sim.resume(job.config.max_instructions)
    except BaseException:
        if run_span is not None:
            recorder.end(run_span, ok=False)
        raise
    elapsed = time.perf_counter() - started
    if run_span is not None:
        recorder.end(run_span, ok=True, cycles=result.cycles)
    return result, elapsed, resumed_from


def _error_record(workload: str, exc: BaseException, retried: bool) -> Dict:
    """One isolated failure as the ``errors`` entry a figure renders."""
    record = {
        "workload": workload,
        "type": type(exc).__name__,
        "error": str(exc),
    }
    if retried:
        record["retried"] = True
    return record


def _worker(
    job: SimJob,
    ckpt_root: Optional[str] = None,
    resume_ok: bool = True,
    recorder: Optional[SpanRecorder] = None,
    context: Optional[TraceContext] = None,
    observe: Optional[Callable[[], Observer]] = None,
) -> JobOutcome:
    """Run one job with failures isolated into records (picklable).

    A transient failure earns exactly one retry; a second failure is
    recorded with ``retried: True``.  ``observe``, when given, makes a
    fresh :class:`Observer` for each attempt, so an exported event
    stream never mixes a failed attempt's events into the retry's.
    """

    def attempt() -> JobOutcome:
        result, elapsed, resumed = _execute_job(
            job, ckpt_root, resume_ok, recorder, context,
            observer=None if observe is None else observe(),
        )
        return JobOutcome(
            result=result, elapsed_s=elapsed, resumed_from=resumed
        )

    try:
        return attempt()
    except Exception as exc:
        if getattr(exc, "transient", False):
            if recorder is not None:
                recorder.instant(
                    "retry", context, transient=True,
                    error=type(exc).__name__,
                )
            try:
                return attempt()
            except Exception as retry_exc:
                return JobOutcome(
                    error=_error_record(job.workload, retry_exc, retried=True)
                )
        return JobOutcome(
            error=_error_record(job.workload, exc, retried=False)
        )


class ExperimentEngine:
    """Executes :class:`SimJob` batches with caching and fan-out.

    ``workers=1`` (the default) runs jobs sequentially in-process —
    bit-identical to the legacy serial harness.  ``workers=N`` fans the
    uncached jobs out over N supervised processes, as does any engine
    with a chaos plan.  Either way ``run()`` returns one
    :class:`JobOutcome` per job **in submission order**.
    """

    def __init__(
        self,
        workers: int = 1,
        cache: Union[ResultCache, None, object] = _DEFAULT_CACHE,
        refresh: bool = False,
        metrics: Optional[MetricsRegistry] = None,
        checkpoints: Union["CheckpointStore", None, object] = _DEFAULT_CACHE,
        journal=None,
        chaos=None,
        telemetry=None,
    ) -> None:
        if not isinstance(workers, int) or workers < 1:
            raise ReproError(f"workers must be a positive int, got {workers!r}")
        self.workers = workers
        #: Fleet TelemetryHub, or None (the default: telemetry off, the
        #: engine pays one ``is not None`` check per lifecycle point).
        self.telemetry = telemetry
        if metrics is None and telemetry is not None:
            # Share one registry so the hub's fleet gauges and the
            # engine's counters land in the same snapshot.
            metrics = telemetry.metrics
        self.cache: Optional[ResultCache] = (
            ResultCache() if cache is _DEFAULT_CACHE else cache
        )
        #: With refresh=True every job is re-simulated and re-stored —
        #: and resume is disabled (a refresh must exercise the full
        #: prefix), though fresh snapshots are still captured.
        self.refresh = refresh
        if checkpoints is _DEFAULT_CACHE:
            # Default: checkpoint alongside the result cache; an engine
            # explicitly running uncached also runs checkpoint-less.
            from ..checkpoint import CheckpointStore

            self.checkpoints: Optional[CheckpointStore] = (
                CheckpointStore(self.cache.root)
                if self.cache is not None
                else None
            )
        else:
            self.checkpoints = checkpoints
        self.stats = EngineStats()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: Durable WAL of job transitions (see repro.harness.journal);
        #: None journals nothing.
        self.journal = journal
        #: A bound ChaosSchedule accumulating injection counters, or
        #: None.  Chaos kills workers, so it forces the supervised path
        #: — an in-process SIGKILL would take the whole sweep down.
        self.chaos = None
        if chaos is not None:
            from ..faults.chaos import ChaosPlan

            if not isinstance(chaos, ChaosPlan):
                raise ReproError(
                    f"chaos must be a ChaosPlan, got {chaos!r}"
                )
        self._chaos_plan = chaos
        self.supervisor = None
        if workers > 1 or chaos is not None:
            from .supervisor import WorkerSupervisor

            lease_s = 300.0
            if chaos is not None and chaos.hang_rate > 0:
                # An injected hang must outlive its lease or it is never
                # reclaimed; honest jobs get the other half of hang_s.
                lease_s = chaos.hang_s / 2
            self.supervisor = WorkerSupervisor(
                workers=self.workers,
                lease_s=lease_s,
                journal=self.journal,
                metrics=self.metrics,
                telemetry=self.telemetry,
            )

    # ------------------------------------------------------------------
    def run(
        self, jobs: Sequence[SimJob], isolate: bool = True
    ) -> List[JobOutcome]:
        """Execute every job; outcomes come back in submission order.

        With ``isolate=False`` the first failure raises instead of
        becoming an error record (single-run CLI semantics).

        Completed results are committed to the result cache (and the
        journal) *as they finish*, not at the end — a SIGINT or a
        crashed sweep keeps everything that was done, and a resumed
        sweep replays it instead of recomputing.
        """
        outcomes: List[Optional[JobOutcome]] = [None] * len(jobs)
        keys: List[Optional[str]] = [None] * len(jobs)
        hub = self.telemetry
        # Supervised workers are tracked, retried and logged by job key.
        jkeys = [job_key(job.spec()) for job in jobs] if (
            self.journal is not None
            or self.supervisor is not None
            or hub is not None
        ) else [None] * len(jobs)
        if hub is not None:
            hub.sweep_started(self.workers)
        pending: List[int] = []
        for index, job in enumerate(jobs):
            self._journal_event(
                "submit", jkeys[index], job=job.to_dict()
            )
            if hub is not None:
                hub.job_submitted(jkeys[index])
            key = None
            if self.cache is not None:
                key = self.cache.key_for(job.spec())
            keys[index] = key
            if key is not None and not self.refresh:
                probe_started = time.perf_counter()
                outcome = self._replay(key)
                if hub is not None:
                    hub.cache_probe(
                        jkeys[index],
                        outcome is not None,
                        time.perf_counter() - probe_started,
                    )
                if outcome is not None:
                    outcomes[index] = outcome
                    self._journal_event("cached", jkeys[index])
                    if hub is not None:
                        hub.job_finished(
                            jkeys[index], ok=True, cached=True,
                            cycles=outcome.result.cycles,
                        )
                    continue
            pending.append(index)

        # Ascending budgets so a sweep's short runs seed its long ones
        # through the checkpoint store (outcomes still land at their
        # submission index, so output order is unchanged).
        pending.sort(key=lambda index: jobs[index].total_budget())

        committed: set = set()

        def commit(index: int, outcome: Optional[JobOutcome]) -> None:
            """Flush one finished job durably the moment it completes."""
            if outcome is None or index in committed:
                return
            committed.add(index)
            if hub is not None:
                hub.job_finished(
                    jkeys[index],
                    ok=outcome.ok,
                    cached=outcome.cached,
                    cycles=outcome.result.cycles if outcome.ok else 0.0,
                )
            if outcome.ok and keys[index] is not None:
                self.cache.put(
                    keys[index],
                    jobs[index].spec(),
                    outcome.result.to_dict(),
                    outcome.elapsed_s,
                )
                if self.chaos is not None:
                    self.chaos.maybe_corrupt_cache(
                        self.cache.path_for(keys[index]), jkeys[index]
                    )

        if pending:
            try:
                if self._chaos_plan is not None or (
                    self.workers > 1 and len(pending) > 1
                ):
                    self._run_supervised(
                        jobs, pending, outcomes, jkeys, commit
                    )
                else:
                    # Same-prefix chains back to back: each job resumes
                    # from its predecessor's end snapshot while the
                    # registry still holds that workload's image.
                    chained = [
                        index
                        for chain in self._chains(jobs, pending)
                        for index in chain
                    ]
                    for position, index in enumerate(chained):
                        if position:
                            # A finished Simulation is one big reference
                            # cycle: free it before the next job starts,
                            # so peak memory holds one simulation rather
                            # than however many the collector has not
                            # reached yet.
                            gc.collect()
                        self._journal_event("start", jkeys[index])
                        if hub is not None:
                            hub.job_scheduled(
                                jkeys[index], worker="in-process"
                            )
                        outcomes[index] = self._run_inprocess(
                            jobs[index], isolate, jkey=jkeys[index]
                        )
                        commit(index, outcomes[index])
                        self._journal_outcome(
                            jkeys[index], outcomes[index]
                        )
            except BaseException:
                # Cancelled or crashed mid-sweep: everything committed
                # so far is already durable; record the interruption.
                self._journal_event("interrupted", None)
                if hub is not None:
                    hub.instant("interrupted")
                    hub.flush()
                raise

        self._account(jobs, outcomes, isolate)
        if hub is not None:
            hub.flush()
        return outcomes

    # ------------------------------------------------------------------
    def _journal_event(self, event: str, key, **data) -> None:
        if self.journal is not None:
            self.journal.append(event, key=key, **data)

    def _journal_outcome(self, key, outcome: Optional[JobOutcome]) -> None:
        if self.journal is None or outcome is None:
            return
        if outcome.ok:
            self._journal_event("done", key, elapsed_s=outcome.elapsed_s)
        else:
            self._journal_event("failed", key, error=outcome.error)

    def _chaos_schedule(self, jkeys: Sequence[str]):
        """Bind the chaos plan to this engine's first job set (lazily);
        later runs reuse the same schedule so counters accumulate."""
        if self._chaos_plan is None:
            return None
        if self.chaos is None:
            self.chaos = self._chaos_plan.schedule(
                [k for k in jkeys if k is not None]
            )
            if self.journal is not None and self._chaos_plan.torn_journal:
                self.journal.write_filter = self.chaos.journal_filter()
        return self.chaos

    def run_all(self, jobs: Sequence[SimJob]) -> List[SimulationResult]:
        """``run()`` with failures raised — for sweeps without isolation."""
        outcomes = self.run(jobs, isolate=False)
        return [outcome.result for outcome in outcomes]

    # ------------------------------------------------------------------
    def _replay(self, key: str) -> Optional[JobOutcome]:
        payload = self.cache.get(key)
        if payload is None:
            return None
        elapsed = payload.get("elapsed_s", 0.0)
        saved = elapsed if isinstance(elapsed, (int, float)) else 0.0
        self.stats.wall_time_saved_s += saved
        return JobOutcome(
            result=payload["replay"], cached=True, elapsed_s=saved
        )

    @property
    def _ckpt_root(self) -> Optional[str]:
        """The checkpoint root as a picklable worker argument."""
        return (
            str(self.checkpoints.root)
            if self.checkpoints is not None
            else None
        )

    def _run_inprocess(
        self, job: SimJob, isolate: bool, jkey: Optional[str] = None
    ) -> JobOutcome:
        resume_ok = not self.refresh
        recorder = context = None
        if self.telemetry is not None:
            # In-process jobs record straight into the hub's own
            # recorder — same process, no pickling or pipe needed.
            recorder = self.telemetry.recorder
            context = self.telemetry.job_context(jkey)
        if not isolate:
            result, elapsed, resumed = _execute_job(
                job, self._ckpt_root, resume_ok, recorder, context
            )
            return JobOutcome(
                result=result, elapsed_s=elapsed, resumed_from=resumed
            )
        return _worker(job, self._ckpt_root, resume_ok, recorder, context)

    def _chains(
        self, jobs: Sequence[SimJob], pending: List[int]
    ) -> List[List[int]]:
        """Group pending job indexes into same-prefix chains.

        Same-prefix jobs become one sequential chain (ascending by
        budget — ``pending`` is already sorted): each member's end
        snapshot seeds the next through the on-disk store.  Distinct
        prefixes still fan out across workers.
        """
        ckpt_root = self._ckpt_root
        if ckpt_root is None:
            return [[index] for index in pending]
        from ..checkpoint import CheckpointStore

        store = CheckpointStore(ckpt_root)
        by_prefix: Dict[str, List[int]] = {}
        for index in pending:
            prefix = store.prefix_key(jobs[index].spec())
            by_prefix.setdefault(prefix, []).append(index)
        return list(by_prefix.values())

    def _units(
        self, jobs: Sequence[SimJob], pending: List[int]
    ) -> List[List[int]]:
        """Pack same-prefix chains into the supervisor's dispatch units.

        A worker process runs one unit, and its registry memo starts
        empty, so every unit builds the workload image it starts from.
        Each builtin image, ``(workload, seed)``, therefore starts as
        one unit holding all of its chains, each whole and in budget
        order, in first-appearance order.  Scenario and trace jobs
        rebuild their workload per job, so their chains stay one unit
        each.  An image is split only to fill the last round of workers:
        the unit count is rounded up to a multiple of ``workers`` (at
        most one unit per chain), each extra unit going to the image
        with the most pending instructions per unit that still has more
        chains than units (ties to the earlier image), whose chains are
        dealt round-robin.  Units come back largest first by pending
        instructions, ties in order.
        """
        groups: Dict[object, List[List[int]]] = {}
        for chain in self._chains(jobs, pending):
            job = jobs[chain[0]]
            image = (
                (job.workload, job.config.seed)
                if job.source == "builtin" else chain[0]
            )
            groups.setdefault(image, []).append(chain)
        images = list(groups.values())

        def work(indexes: Iterable[int]) -> int:
            return sum(jobs[index].total_budget() for index in indexes)

        totals = [work(i for chain in group for i in chain)
                  for group in images]
        splits = [1] * len(images)
        rounds = -(-len(images) // self.workers)
        target = min(sum(map(len, images)), rounds * self.workers)
        for _ in range(target - len(images)):
            pick = max(
                (i for i, group in enumerate(images)
                 if len(group) > splits[i]),
                key=lambda i: totals[i] / splits[i],
            )
            splits[pick] += 1
        units: List[List[int]] = []
        for group, count in zip(images, splits):
            packed: List[List[int]] = [[] for _ in range(count)]
            for position, chain in enumerate(group):
                packed[position % count].extend(chain)
            units.extend(packed)
        return sorted(units, key=work, reverse=True)

    def _run_supervised(
        self,
        jobs: Sequence[SimJob],
        pending: List[int],
        outcomes: List[Optional[JobOutcome]],
        jkeys: Sequence[Optional[str]],
        commit: Callable[[int, Optional[JobOutcome]], None],
    ) -> None:
        """The crash-safe path: chains, packed into units by
        :meth:`_units`, under the worker supervisor."""
        members = self._units(jobs, pending)
        schedule = self._chaos_schedule(
            [jkeys[index] for index in pending]
        )
        units = [[jobs[index] for index in unit] for unit in members]
        unit_keys = [[jkeys[index] for index in unit] for unit in members]

        def on_outcome(unit_id: int, position: int, outcome) -> None:
            commit(members[unit_id][position], outcome)

        supervisor = self.supervisor
        before = (supervisor.reclaimed, supervisor.retries,
                  supervisor.quarantined)
        results = supervisor.execute(
            units,
            unit_keys,
            self._ckpt_root,
            not self.refresh,
            chaos=schedule,
            on_outcome=on_outcome,
        )
        for unit, unit_results in zip(members, results):
            for index, outcome in zip(unit, unit_results):
                if outcome is None:
                    outcome = JobOutcome(
                        error=_error_record(
                            jobs[index].workload,
                            WorkerCrashError(
                                "job never produced an outcome"
                            ),
                            retried=False,
                        )
                    )
                outcomes[index] = outcome
                commit(index, outcome)
        self.stats.leases_reclaimed += supervisor.reclaimed - before[0]
        self.stats.jobs_retried += supervisor.retries - before[1]
        self.stats.jobs_quarantined += supervisor.quarantined - before[2]

    def _account(
        self,
        jobs: Sequence[SimJob],
        outcomes: Sequence[JobOutcome],
        isolate: bool,
    ) -> None:
        for job, outcome in zip(jobs, outcomes):
            if outcome.cached:
                self.stats.jobs_cached += 1
            elif outcome.ok:
                self.stats.jobs_run += 1
                self.stats.wall_time_spent_s += outcome.elapsed_s
                if outcome.resumed_from is not None:
                    self.stats.jobs_resumed += 1
            else:
                self.stats.jobs_failed += 1
                if not isolate:
                    raise ReproError(
                        f"simulation of {job.workload!r} failed: "
                        f"{outcome.error['type']}: {outcome.error['error']}"
                    )
        metrics = self.metrics
        metrics.gauge("engine.jobs_run").set(self.stats.jobs_run)
        metrics.gauge("engine.jobs_cached").set(self.stats.jobs_cached)
        metrics.gauge("engine.jobs_resumed").set(self.stats.jobs_resumed)
        metrics.gauge("engine.jobs_failed").set(self.stats.jobs_failed)
        metrics.gauge("engine.leases_reclaimed").set(
            self.stats.leases_reclaimed
        )
        metrics.gauge("engine.jobs_retried").set(self.stats.jobs_retried)
        metrics.gauge("engine.jobs_quarantined").set(
            self.stats.jobs_quarantined
        )
        metrics.gauge("engine.wall_time_saved_s").set(
            self.stats.wall_time_saved_s
        )
        metrics.gauge("engine.wall_time_spent_s").set(
            self.stats.wall_time_spent_s
        )
        if self.cache is not None:
            metrics.gauge("cache.quarantined").set(self.cache.quarantined)


def group_outcomes(
    jobs: Sequence[SimJob],
    outcomes: Sequence[JobOutcome],
    errors: List[Dict],
) -> Dict[str, List[SimulationResult]]:
    """Group job results by isolation group (``job.group``, else the
    workload), in job order.

    A group with any failed job contributes no results, and exactly one
    error record (its first failure, in job order) lands in ``errors``.
    """
    grouped: Dict[str, List[SimulationResult]] = {}
    failed: set = set()
    for job, outcome in zip(jobs, outcomes):
        name = job.group or job.workload
        if name in failed:
            continue
        if not outcome.ok:
            failed.add(name)
            grouped.pop(name, None)
            errors.append(outcome.error)
            continue
        grouped.setdefault(name, []).append(outcome.result)
    return grouped


def run_workload_groups(
    engine: ExperimentEngine,
    jobs: Sequence[SimJob],
    errors: List[Dict],
) -> Dict[str, List[SimulationResult]]:
    """Run jobs on ``engine`` and :func:`group_outcomes` their results."""
    return group_outcomes(jobs, engine.run(jobs), errors)
