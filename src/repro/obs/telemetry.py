"""Fleet telemetry: the hub that aggregates spans, live samples, and
fleet gauges across the engine and its worker processes.

The :class:`TelemetryHub` lives in the engine process.  Engine-side
lifecycle points (submit, cache probe, schedule, commit, reclaim) are
recorded directly through the hub's own :class:`~repro.obs.spans.
SpanRecorder`; worker-side spans stream live over the supervisor pipe
and are fed in through :meth:`TelemetryHub.ingest`.
Live interval-sampler windows ride the same path and land in a bounded
:class:`~repro.obs.events.EventRing`, so a `repro fleet status` reader
always sees the newest window of activity no matter how long the sweep
has been running.

The hub maintains the fleet gauges the engine and supervisor already
publish (``engine.*``, ``fleet.*``) plus its own:

* ``fleet.queue_depth`` — jobs submitted but not yet terminal;
* ``fleet.workers`` / ``fleet.workers_busy`` / ``fleet.workers_idle``;
* ``fleet.cache_probes`` / ``fleet.cache_hits`` /
  ``fleet.cache_hit_rate``;
* ``fleet.sim_cycles_per_s`` — simulated-cycle throughput over the
  hub's lifetime (the fleet-level "how fast are we actually going").

Three export surfaces:

* :meth:`TelemetryHub.write_trace` — one Perfetto-loadable file
  stitching every process's spans (see ``fleet_chrome_trace``);
* :func:`write_prometheus` — the metrics registry as Prometheus text
  exposition (``telemetry.prom``), the format every scrape stack eats;
* :meth:`TelemetryHub.flush` — a live feed (``telemetry.json`` +
  ``telemetry.prom`` + append-only ``spans.jsonl``) written into the
  sweep's journal directory, which is what ``repro fleet status``
  tails.

Everything here is wall-clock-side observation: the hub never touches a
simulation, and with no hub attached the engine pays one ``is not
None`` check per lifecycle point — results are byte-identical either
way (proven by ``tests/test_telemetry.py``).
"""

from __future__ import annotations

import json
import os
import pathlib
import threading
import time
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from .events import EventRing, TraceEvent
from .export import fleet_chrome_trace, write_fleet_trace
from .metrics import MetricsRegistry
from .spans import Span, SpanRecorder, TraceContext, new_sweep_id

#: The live-feed file names `flush` writes and `fleet status` reads.
TELEMETRY_SNAPSHOT = "telemetry.json"
TELEMETRY_PROM = "telemetry.prom"
TELEMETRY_SPANS = "spans.jsonl"

#: Minimum seconds between live-feed flushes (the final flush always
#: happens): a thousand-job sweep must not spend its time rewriting
#: telemetry.json.
_FLUSH_INTERVAL_S = 0.25

#: The engine summary line, field by field: (label, gauge name).  One
#: source for the ``engine: run=... cached=...`` stderr line *and* the
#: fleet gauges — the counts can no longer drift apart.
SUMMARY_GAUGES = (
    ("run", "engine.jobs_run"),
    ("cached", "engine.jobs_cached"),
    ("resumed", "engine.jobs_resumed"),
    ("failed", "engine.jobs_failed"),
    ("reclaimed", "engine.leases_reclaimed"),
    ("retried", "engine.jobs_retried"),
    ("quarantined", "engine.jobs_quarantined"),
)


def format_engine_summary(values: Mapping[str, float]) -> str:
    """Render the one-line engine summary from a label→value mapping.

    This is the *single* formatter behind ``EngineStats.summary()`` and
    :func:`fleet_summary`; CI greps this exact shape
    (``engine: run=N cached=N ...``), so the layout is load-bearing.
    """
    parts = [
        f"{label}={int(values.get(label, 0))}"
        for label, _gauge in SUMMARY_GAUGES
    ]
    parts.append(f"spent={values.get('spent', 0.0):.1f}s")
    parts.append(f"saved={values.get('saved', 0.0):.1f}s")
    return "engine: " + " ".join(parts)


def fleet_summary(metrics: MetricsRegistry) -> str:
    """The engine summary line, read back out of the fleet gauges."""
    values: Dict[str, float] = {
        label: metrics.gauge(gauge).value for label, gauge in SUMMARY_GAUGES
    }
    values["spent"] = metrics.gauge("engine.wall_time_spent_s").value
    values["saved"] = metrics.gauge("engine.wall_time_saved_s").value
    return format_engine_summary(values)


def _prom_name(name: str) -> str:
    cleaned = "".join(
        ch if (ch.isalnum() or ch == "_") else "_" for ch in name
    )
    if cleaned and cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return f"repro_{cleaned}"


def prometheus_text(metrics: MetricsRegistry) -> str:
    """Render a metrics registry as Prometheus text exposition."""
    snapshot = metrics.snapshot()
    lines: List[str] = []
    for name, value in snapshot["counters"].items():
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} counter")
        lines.append(f"{prom} {value}")
    for name, value in snapshot["gauges"].items():
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} gauge")
        lines.append(f"{prom} {value}")
    for name, hist in snapshot["histograms"].items():
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} histogram")
        cumulative = 0
        for bound, count in zip(hist["bounds"], hist["counts"]):
            cumulative += count
            lines.append(f'{prom}_bucket{{le="{bound}"}} {cumulative}')
        lines.append(f'{prom}_bucket{{le="+Inf"}} {hist["count"]}')
        lines.append(f"{prom}_sum {hist['total']}")
        lines.append(f"{prom}_count {hist['count']}")
    return "\n".join(lines) + "\n"


def write_prometheus(metrics: MetricsRegistry, path: os.PathLike) -> None:
    """Atomically publish the registry as a Prometheus-text ``/metrics``
    snapshot."""
    # Imported late: importing repro.harness imports this module.
    from ..harness.blobstore import publish

    publish(pathlib.Path(path), prometheus_text(metrics).encode("utf-8"))


class TelemetryHub:
    """Aggregates one sweep's spans, live samples, and fleet gauges.

    Thread-safe for ingestion: the supervisor's drain loop and test
    harnesses may all feed it concurrently.
    """

    def __init__(
        self,
        sweep_id: Optional[str] = None,
        metrics: Optional[MetricsRegistry] = None,
        out_dir: Optional[os.PathLike] = None,
        ring_capacity: int = 4096,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.sweep_id = sweep_id or new_sweep_id()
        self.context = TraceContext(self.sweep_id)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.clock = clock
        self.recorder = SpanRecorder(
            self.context, role="engine", clock=clock
        )
        #: Live telemetry feed (the newest samples, bounded like a
        #: hardware trace buffer).
        self.ring = EventRing(ring_capacity)
        self.out_dir = pathlib.Path(out_dir) if out_dir is not None else None
        self._lock = threading.Lock()
        self._ingested: List[Dict] = []
        #: Flush watermarks over the two *append-only* span sources.
        #: (Counting over the merged time-sorted view would be wrong: a
        #: worker span can arrive late yet sort into the already-flushed
        #: prefix and never reach spans.jsonl.)
        self._flushed_engine = 0
        self._flushed_ingested = 0
        self._last_flush = 0.0
        self._started = clock()
        self._cycles_done = 0.0
        self._terminal = 0
        self._submitted = 0
        self.ingested = 0

    # ------------------------------------------------------------------
    # Engine-side recording.
    # ------------------------------------------------------------------
    def job_context(self, key: Optional[str], attempt: int = 0) -> TraceContext:
        return self.context.for_job(key, attempt)

    def instant(self, name: str, key: Optional[str] = None, **fields) -> None:
        with self._lock:
            self.recorder.instant(name, self.job_context(key), **fields)

    def span(self, name: str, key: Optional[str] = None, **fields):
        """Context manager recording one engine-side span."""
        return self.recorder.span(name, self.job_context(key), **fields)

    # ------------------------------------------------------------------
    # Worker-side feed.
    # ------------------------------------------------------------------
    def ingest(self, record: Dict) -> None:
        """Accept one serialised span/sample dict from a worker."""
        if not isinstance(record, dict):
            return
        with self._lock:
            self.ingested += 1
            if record.get("type") == "sample":
                fields = dict(record.get("fields") or {})
                fields["job_key"] = record.get("job_key")
                fields["attempt"] = record.get("attempt", 0)
                self.ring.append(
                    TraceEvent(fields.get("index", 0), "fleet_sample", fields)
                )
            else:
                self._ingested.append(record)

    # ------------------------------------------------------------------
    # Fleet-gauge lifecycle hooks (called by the engine).
    # ------------------------------------------------------------------
    def sweep_started(self, workers: int) -> None:
        self.metrics.gauge("fleet.workers").set(workers)

    def job_submitted(self, key: Optional[str]) -> None:
        self._submitted += 1
        self.instant("submit", key)
        self._set_queue_depth()

    def cache_probe(self, key: Optional[str], hit: bool, elapsed_s: float) -> None:
        metrics = self.metrics
        probes = metrics.counter("fleet.cache_probes")
        hits = metrics.counter("fleet.cache_hits")
        probes.inc()
        if hit:
            hits.inc()
        metrics.gauge("fleet.cache_hit_rate").set(
            hits.value / probes.value if probes.value else 0.0
        )
        with self._lock:
            span = self.recorder.begin(
                "cache-probe", self.job_context(key), hit=hit
            )
            span.start_s -= elapsed_s
            self.recorder.end(span)

    def job_scheduled(self, key: Optional[str], attempt: int = 0, **fields) -> None:
        with self._lock:
            self.recorder.instant(
                "schedule", self.job_context(key, attempt), **fields
            )

    def job_finished(
        self,
        key: Optional[str],
        ok: bool,
        cached: bool = False,
        cycles: float = 0.0,
    ) -> None:
        """A job reached a terminal state engine-side: record the commit
        marker and update throughput."""
        self.instant("commit", key, ok=ok, cached=cached)
        self._terminal += 1
        if cycles:
            self._cycles_done += cycles
        elapsed = max(self.clock() - self._started, 1e-9)
        self.metrics.gauge("fleet.sim_cycles_per_s").set(
            self._cycles_done / elapsed
        )
        self._set_queue_depth()
        self.maybe_flush()

    def job_reclaimed(
        self, key: Optional[str], attempt: int, reason: str, retrying: bool
    ) -> None:
        self.instant("reclaim", key, attempt=attempt, reason=reason)
        if retrying:
            self.instant("retry", key, attempt=attempt)
        else:
            # Terminal accounting happens in the engine's commit path,
            # which every quarantined outcome also flows through.
            self.instant("quarantine", key, attempt=attempt)

    def workers_busy(self, busy: int, total: int) -> None:
        self.metrics.gauge("fleet.workers_busy").set(busy)
        self.metrics.gauge("fleet.workers_idle").set(max(0, total - busy))

    def _set_queue_depth(self) -> None:
        self.metrics.gauge("fleet.queue_depth").set(
            max(0, self._submitted - self._terminal)
        )

    # ------------------------------------------------------------------
    # Views and exports.
    # ------------------------------------------------------------------
    def spans(self) -> List[Dict]:
        """Every recorded span dict (engine + ingested), by start time."""
        with self._lock:
            merged = list(self.recorder._buffer) + list(self._ingested)
        merged.sort(key=lambda s: (s.get("start_s", 0.0), s.get("pid", 0)))
        return merged

    def summary(self) -> str:
        return fleet_summary(self.metrics)

    def snapshot(self) -> Dict:
        """The JSON live-feed payload (``telemetry.json``)."""
        spans = self.spans()
        with self._lock:
            samples = [event.fields for event in self.ring]
        return {
            "sweep_id": self.sweep_id,
            "updated_at": self.clock(),
            "gauges": self.metrics.snapshot()["gauges"],
            "counters": self.metrics.snapshot()["counters"],
            "queue_depth": max(0, self._submitted - self._terminal),
            "spans_recorded": len(spans),
            "spans_tail": spans[-64:],
            "samples_tail": samples[-64:],
            "ring": self.ring.summary(),
        }

    def write_trace(
        self, path: os.PathLike, metadata: Optional[Dict] = None
    ) -> int:
        """Write the stitched Perfetto trace; returns the event count."""
        meta = {"sweep_id": self.sweep_id}
        if metadata:
            meta.update(metadata)
        return write_fleet_trace(self.spans(), path, metadata=meta)

    def chrome_trace(self) -> Dict:
        return fleet_chrome_trace(
            self.spans(), metadata={"sweep_id": self.sweep_id}
        )

    # ------------------------------------------------------------------
    # Live feed.
    # ------------------------------------------------------------------
    def maybe_flush(self) -> None:
        """Flush the live feed, throttled; cheap no-op without out_dir."""
        if self.out_dir is None:
            return
        now = self.clock()
        if now - self._last_flush < _FLUSH_INTERVAL_S:
            return
        self.flush()

    def flush(self) -> None:
        """Write the live feed files (telemetry.json/.prom, spans.jsonl).

        Failures are swallowed after a log-free best effort: telemetry
        observes the fleet, it must never kill it.
        """
        if self.out_dir is None:
            return
        from ..harness.blobstore import publish

        self._last_flush = self.clock()
        try:
            publish(
                self.out_dir / TELEMETRY_SNAPSHOT,
                json.dumps(self.snapshot(), sort_keys=True).encode("utf-8"),
            )
            write_prometheus(self.metrics, self.out_dir / TELEMETRY_PROM)
            with self._lock:
                engine_spans = list(
                    self.recorder._buffer[self._flushed_engine:]
                )
                ingested = list(
                    self._ingested[self._flushed_ingested:]
                )
                next_engine = len(self.recorder._buffer)
                next_ingested = len(self._ingested)
            fresh = engine_spans + ingested
            if fresh:
                with open(
                    self.out_dir / TELEMETRY_SPANS, "a", encoding="utf-8"
                ) as fh:
                    for record in fresh:
                        fh.write(json.dumps(record, sort_keys=True) + "\n")
                self._flushed_engine = next_engine
                self._flushed_ingested = next_ingested
        except OSError:
            pass


# ----------------------------------------------------------------------
# Journal ↔ span coverage.
# ----------------------------------------------------------------------
#: Journal terminal states that must carry an engine-side commit marker.
_TERMINAL_STATES = frozenset({"done", "failed", "quarantined"})


def spans_cover_journal(spans: Sequence[Dict], state) -> List[str]:
    """Check that a sweep's spans account for every journalled job event.

    ``state`` is a :class:`repro.harness.journal.JournalState`.  Returns
    a list of problems (empty means full coverage): every job must have
    a ``submit`` span; every terminal job a ``commit``; a finished job
    either ran (``run`` span) or replayed from cache (``cache-probe``
    with ``hit``); every journalled reclaim a ``reclaim`` span; every
    quarantine a ``quarantine`` span.  Used by the chaos telemetry
    tests.
    """
    by_key: Dict[str, List[Dict]] = {}
    for span in spans:
        key = span.get("job_key")
        if key is not None:
            by_key.setdefault(key, []).append(span)
    problems: List[str] = []
    for key, job in state.jobs.items():
        job_spans = by_key.get(key, [])
        names = [s.get("name") for s in job_spans]
        short = key[:12]
        if "submit" not in names:
            problems.append(f"job {short}: no submit span")
        if job.state in _TERMINAL_STATES and "commit" not in names:
            problems.append(
                f"job {short}: terminal ({job.state}) but no commit span"
            )
        if job.state == "done":
            cache_hit = any(
                s.get("name") == "cache-probe"
                and (s.get("fields") or {}).get("hit")
                for s in job_spans
            )
            if "run" not in names and not cache_hit:
                problems.append(
                    f"job {short}: done with neither a run span nor a "
                    "cache hit"
                )
        reclaims = names.count("reclaim")
        if reclaims < job.strikes:
            problems.append(
                f"job {short}: {job.strikes} journalled reclaim(s) but "
                f"only {reclaims} reclaim span(s)"
            )
        if job.state == "quarantined" and "quarantine" not in names:
            problems.append(f"job {short}: quarantined without a span")
    return problems


def workload_provenance_problems(
    spans: Sequence[Dict], state
) -> List[str]:
    """Check that externally-sourced jobs declare their provenance.

    Companion to :func:`spans_cover_journal`: for every journalled job
    whose submitted spec carries a ``scenario``/``trace`` source, each
    of its ``run`` spans must say so (``source`` + ``workload`` fields)
    — a scenario result that cannot be traced back to its generating
    spec is unreproducible.  Builtin jobs must claim ``builtin`` (or
    predate the field).  Returns problems; empty means full provenance.
    """
    by_key: Dict[str, List[Dict]] = {}
    for span in spans:
        key = span.get("job_key")
        if key is not None and span.get("name") == "run":
            by_key.setdefault(key, []).append(span)
    problems: List[str] = []
    for key, job in state.jobs.items():
        submitted = job.job or {}
        if submitted.get("scenario") is not None:
            expected = "scenario"
        elif submitted.get("trace") is not None:
            expected = "trace"
        else:
            expected = "builtin"
        short = key[:12]
        for span in by_key.get(key, []):
            fields = span.get("fields") or {}
            source = fields.get("source")
            if expected != "builtin" and source != expected:
                problems.append(
                    f"job {short}: {expected}-sourced but its run span "
                    f"says source={source!r}"
                )
            elif expected == "builtin" and source not in (None, "builtin"):
                problems.append(
                    f"job {short}: builtin workload but its run span "
                    f"says source={source!r}"
                )
            if expected != "builtin" and not fields.get("workload"):
                problems.append(
                    f"job {short}: {expected}-sourced run span is "
                    "missing its workload name"
                )
    return problems


# ----------------------------------------------------------------------
# Live-feed readers (the `repro fleet status` side).
# ----------------------------------------------------------------------
def read_snapshot(directory: os.PathLike) -> Optional[Dict]:
    """Load ``telemetry.json`` from a journal/telemetry directory."""
    path = pathlib.Path(directory) / TELEMETRY_SNAPSHOT
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


def read_spans(directory: os.PathLike) -> List[Dict]:
    """Load the append-only span log from a telemetry directory."""
    path = pathlib.Path(directory) / TELEMETRY_SPANS
    spans: List[Dict] = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    continue  # torn tail: same rule as the journal
                if isinstance(record, dict):
                    spans.append(record)
    except OSError:
        pass
    return spans
