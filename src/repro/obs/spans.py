"""Cross-process span tracing: trace contexts and the span recorder.

The PR 2 obs layer sees inside one simulation process; a fleet run is
many processes — the engine and N supervised workers — and the
question "where did job X's three seconds go?" spans all of them.  This
module is the fleet-side answer:

* a :class:`TraceContext` names *whose* work a span belongs to:
  ``sweep id → job key → attempt``.  The sweep id is minted once per CLI
  invocation, the job key is the journal identity of the job (a stable
  spec hash, see :func:`repro.harness.journal.job_key`), and the attempt
  counts re-dispatches after reclaims — so a retried job's second life
  is a *different* set of spans from its first;
* a :class:`Span` is one named interval (or instant) of that work, wall
  -clock stamped and tagged with the recording process's pid and role.
  Wall time is the one clock every process on a host shares, which is
  what lets the exporter stitch engine and worker spans onto one
  timeline;
* a :class:`SpanRecorder` collects spans in whatever process the work
  happens in.  With no sink it buffers (the engine's own hub reads the
  buffer); with a sink each finished span is pushed immediately
  (supervised workers stream them over the existing supervisor pipe,
  so a later SIGKILL cannot take finished spans down with the
  process).

Spans observe the fleet, never the simulation: nothing in here touches
simulated state, and every engine/worker emit site is guarded by a
single ``is not None`` check, so a telemetry-disabled run does no
recording work at all (the PR 2 invariant, extended to the fleet).

Span taxonomy (mirrors the journal's event vocabulary — the coverage
checker in :mod:`repro.obs.telemetry` holds the two to each other):

====================  ==================================================
name                  recorded when
====================  ==================================================
``submit``            the engine accepts a job into a sweep
``cache-probe``       the result cache is consulted (``hit`` field)
``schedule``          a job is dispatched to a worker (journal "start")
``checkpoint-restore``a worker restores a prefix snapshot
``run``               the simulation itself, first instruction to last
``sample``            a windowed IPC/miss-rate sample closed mid-run
``checkpoint-capture``a snapshot was captured and offered to the store
``commit``            the outcome became durable engine-side
``reclaim``           a worker died or overstayed its lease
``retry``             a reclaimed job re-entered the queue
``quarantine``        a poison job was removed from play
====================  ==================================================
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional


@dataclass(frozen=True)
class TraceContext:
    """Who a span belongs to: sweep → job → attempt."""

    sweep_id: str
    job_key: Optional[str] = None
    attempt: int = 0

    def for_job(self, job_key: Optional[str], attempt: int = 0) -> "TraceContext":
        """The context of one job (or re-dispatch) within this sweep."""
        return TraceContext(self.sweep_id, job_key, attempt)

    def retry(self) -> "TraceContext":
        """The next attempt of the same job."""
        return TraceContext(self.sweep_id, self.job_key, self.attempt + 1)

    def to_dict(self) -> Dict:
        return {
            "sweep_id": self.sweep_id,
            "job_key": self.job_key,
            "attempt": self.attempt,
        }

    @staticmethod
    def from_dict(raw: Dict) -> "TraceContext":
        return TraceContext(
            sweep_id=raw.get("sweep_id", ""),
            job_key=raw.get("job_key"),
            attempt=int(raw.get("attempt", 0)),
        )


def new_sweep_id() -> str:
    """A fresh sweep identity: unique enough across hosts and restarts.

    Deliberately *not* derived from the job set — two runs of the same
    sweep are two sweeps (their wall-clock spans differ even when their
    simulated results are byte-identical).
    """
    return f"{int(time.time() * 1000):x}-{os.getpid()}"


@dataclass
class Span:
    """One named interval (or instant) of fleet work."""

    name: str
    context: TraceContext
    start_s: float
    #: ``None`` while the span is open; equal to ``start_s`` for
    #: instants.
    end_s: Optional[float] = None
    pid: int = 0
    #: ``engine`` or ``worker`` — picks the Perfetto process lane.
    role: str = "engine"
    fields: Dict = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        if self.end_s is None:
            return 0.0
        return max(0.0, self.end_s - self.start_s)

    def to_dict(self) -> Dict:
        record = {
            "type": "span",
            "name": self.name,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "pid": self.pid,
            "role": self.role,
        }
        record.update(self.context.to_dict())
        if self.fields:
            record["fields"] = dict(self.fields)
        return record

    @staticmethod
    def from_dict(raw: Dict) -> "Span":
        return Span(
            name=raw.get("name", ""),
            context=TraceContext.from_dict(raw),
            start_s=float(raw.get("start_s", 0.0)),
            end_s=raw.get("end_s"),
            pid=int(raw.get("pid", 0)),
            role=raw.get("role", "engine"),
            fields=dict(raw.get("fields") or {}),
        )


class SpanRecorder:
    """Collects finished spans in one process.

    ``sink`` is a callable taking one serialised span dict.  With a sink
    (supervised workers: the pipe), finished spans are pushed the moment
    they close and nothing is buffered; without one (the engine's own
    hub) they accumulate until :meth:`drain`.
    """

    def __init__(
        self,
        context: TraceContext,
        role: str = "engine",
        sink: Optional[Callable[[Dict], None]] = None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.context = context
        self.role = role
        self.sink = sink
        self.clock = clock
        self.pid = os.getpid()
        self.recorded = 0
        self._buffer: List[Dict] = []

    # ------------------------------------------------------------------
    def begin(
        self, name: str, context: Optional[TraceContext] = None, **fields
    ) -> Span:
        """Open a span; finish it with :meth:`end`."""
        return Span(
            name=name,
            context=context or self.context,
            start_s=self.clock(),
            pid=self.pid,
            role=self.role,
            fields=dict(fields),
        )

    def end(self, span: Span, **fields) -> Span:
        """Close and record an open span (extra fields merge in)."""
        span.end_s = self.clock()
        if fields:
            span.fields.update(fields)
        self._record(span.to_dict())
        return span

    @contextmanager
    def span(
        self, name: str, context: Optional[TraceContext] = None, **fields
    ) -> Iterator[Span]:
        """``with recorder.span("run", ctx):`` — closed even on raise."""
        span = self.begin(name, context, **fields)
        try:
            yield span
        except BaseException:
            span.fields["error"] = True
            raise
        finally:
            self.end(span)

    def instant(
        self, name: str, context: Optional[TraceContext] = None, **fields
    ) -> Span:
        """A zero-duration marker (submit, commit, reclaim, ...)."""
        now = self.clock()
        span = Span(
            name=name,
            context=context or self.context,
            start_s=now,
            end_s=now,
            pid=self.pid,
            role=self.role,
            fields=dict(fields),
        )
        self._record(span.to_dict())
        return span

    def sample_sink(
        self, context: Optional[TraceContext] = None
    ) -> Callable[[Dict], None]:
        """A callable for ``Observer.sample_sink``: forwards each closed
        interval-sampler window as a live ``sample`` record."""
        ctx = context or self.context

        def forward(fields: Dict) -> None:
            now = self.clock()
            record = {
                "type": "sample",
                "name": "sample",
                "start_s": now,
                "end_s": now,
                "pid": self.pid,
                "role": self.role,
                "fields": dict(fields),
            }
            record.update(ctx.to_dict())
            self._record(record)

        return forward

    # ------------------------------------------------------------------
    def _record(self, record: Dict) -> None:
        self.recorded += 1
        if self.sink is not None:
            try:
                self.sink(record)
            except (BrokenPipeError, OSError):
                # The consumer went away (parent died, pipe closed):
                # telemetry observes the fleet, it must never kill it.
                self.sink = None
        else:
            self._buffer.append(record)

    def drain(self) -> List[Dict]:
        """The buffered span dicts, oldest first; clears the buffer."""
        drained = self._buffer
        self._buffer = []
        return drained
