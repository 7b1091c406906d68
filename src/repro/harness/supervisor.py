"""Supervised worker fleet: heartbeats, wall-time leases, and
lease-expiry reclamation over per-chain worker processes.

The supervisor is the engine's only multi-process path.  It is built for
a *hostile* world — the one the chaos harness creates on purpose — where
a worker can be SIGKILLed mid-job, hang forever, or die silently between
jobs of a chain, and it serves well-behaved sweeps through the same
code:

* each dispatch is its **own process** holding one chain of same-prefix
  jobs, reporting per-job results over a pipe as they complete, so a
  crash after job k of n loses at most job k+1's attempt (k results are
  already committed parent-side);
* a daemon thread in the worker sends **heartbeats**; the parent tracks
  liveness and exposes it as fleet-health gauges;
* every job runs under a **wall-time lease**.  A worker that holds a
  job past its lease is presumed hung: the supervisor SIGKILLs it,
  revokes the lease, and *reclaims* the job;
* reclaimed jobs re-dispatch under a structured :class:`RetryPolicy`
  (exponential backoff with seeded jitter).  A job that takes down
  ``max_attempts`` workers in a row is **poison**: it is quarantined
  with a :class:`~repro.errors.PoisonJobError` record instead of
  wedging the sweep.

The no-failure path pays almost nothing: one fork per chain, one pipe
message per job, one clock comparison per poll tick — the simulation
itself dwarfs all of it (the "Helper Without Threads" rule: recovery
machinery must be cheap when nothing needs recovering).
"""

from __future__ import annotations

import os
import signal
import threading
import time
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from multiprocessing import get_context
from typing import Callable, Dict, List, Optional, Sequence

from ..errors import (
    LeaseExpiredError,
    PoisonJobError,
    WorkerCrashError,
)
from ..logutil import get_logger

_log = get_logger("supervisor")


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with seeded jitter for reclaimed jobs."""

    #: Total dispatch attempts per job before quarantine.
    max_attempts: int = 3
    backoff_base_s: float = 0.1
    backoff_factor: float = 2.0
    #: Jitter as a +/- fraction of the backoff (decorrelates a herd of
    #: reclaimed jobs re-dispatching together).
    jitter: float = 0.25

    def delay(self, attempt: int, key: str) -> float:
        """Seconds to wait before dispatch attempt ``attempt`` (1-based
        retry count); seeded per key so schedules are reproducible."""
        import hashlib
        import random

        base = self.backoff_base_s * (
            self.backoff_factor ** max(0, attempt - 1)
        )
        digest = hashlib.sha256(f"{key}:{attempt}".encode()).digest()
        rng = random.Random(int.from_bytes(digest[:8], "big"))
        return base * (1.0 + self.jitter * (2.0 * rng.random() - 1.0))


def _child_main(
    send,
    jobs,
    ckpt_root: Optional[str],
    resume_ok: bool,
    tokens: Sequence[Optional[str]],
    heartbeat_s: float,
    hang_s: float,
    sweep_id: Optional[str] = None,
    trace: Optional[Sequence] = None,
) -> None:
    """Worker entry: run a chain, streaming per-job outcomes.

    ``tokens`` is the chaos verdict per job ("pre"/"post" kill, "hang",
    or None); in production runs it is all None.  The heartbeat thread
    is a daemon so a hung main thread still beats — liveness and
    progress are deliberately separate signals (leases own progress).

    With a ``sweep_id`` (telemetry on) every span and interval-sampler
    window is streamed over the pipe as a ``("tele", None, dict)``
    message *as it happens*, so a SIGKILL mid-job — the chaos harness's
    favourite move — cannot lose the telemetry of work already done.
    ``trace`` carries one ``(job_key, attempt)`` pair per job.
    """
    from .engine import _worker

    stop = threading.Event()

    def beat() -> None:
        while not stop.wait(heartbeat_s):
            try:
                send.send(("beat", None, None))
            except OSError:
                return

    recorder = None
    contexts: List = [None] * len(jobs)
    if sweep_id is not None:
        from ..obs.spans import SpanRecorder, TraceContext

        def sink(record, _send=send):
            _send.send(("tele", None, record))

        recorder = SpanRecorder(
            TraceContext(sweep_id), role="worker", sink=sink
        )
        contexts = [
            TraceContext(sweep_id, key, attempt)
            for key, attempt in (trace or [])
        ]
        while len(contexts) < len(jobs):
            contexts.append(TraceContext(sweep_id))

    threading.Thread(target=beat, daemon=True).start()
    try:
        for position, (job, token) in enumerate(zip(jobs, tokens)):
            if token == "pre":
                os.kill(os.getpid(), signal.SIGKILL)
            if token == "hang":
                time.sleep(hang_s)
            outcome = _worker(
                job, ckpt_root, resume_ok, recorder, contexts[position]
            )
            if token == "post":
                os.kill(os.getpid(), signal.SIGKILL)
            send.send(("done", position, outcome))
        send.send(("exit", None, None))
    except (BrokenPipeError, OSError):
        pass  # parent went away; nothing left to report to
    finally:
        stop.set()
        send.close()


@dataclass
class _Handle:
    """Parent-side state of one live worker process."""

    unit_id: int
    proc: object
    conn: object
    #: Index into the unit's job list of the first job this dispatch
    #: covers (earlier jobs already have outcomes).
    base: int
    lease_deadline: float
    last_beat: float
    finished: bool = False


@dataclass
class _Unit:
    """One chain of jobs moving through the supervisor."""

    jobs: List
    keys: List[str]
    outcomes: List
    next_index: int = 0
    attempts: Dict[int, int] = field(default_factory=dict)
    ready_at: float = 0.0

    @property
    def done(self) -> bool:
        return self.next_index >= len(self.jobs)


class WorkerSupervisor:
    """Dispatch chains of jobs to supervised worker processes.

    Counters are cumulative over the supervisor's life so an engine can
    report fleet health across several ``run()`` calls.
    """

    def __init__(
        self,
        workers: int = 1,
        lease_s: float = 300.0,
        heartbeat_s: float = 1.0,
        retry: Optional[RetryPolicy] = None,
        journal=None,
        metrics=None,
        clock: Callable[[], float] = time.monotonic,
        telemetry=None,
    ) -> None:
        self.workers = max(1, int(workers))
        self.lease_s = float(lease_s)
        self.heartbeat_s = float(heartbeat_s)
        self.retry = retry or RetryPolicy()
        self.journal = journal
        self.metrics = metrics
        #: Fleet TelemetryHub (or None): workers stream spans/samples
        #: over their result pipe; the drain loop feeds them to the hub.
        self.telemetry = telemetry
        self._clock = clock
        self._ctx = get_context()
        self._active: Dict[int, _Handle] = {}
        # Fleet-health counters (mirrored into obs gauges).
        self.reclaimed = 0
        self.lease_expiries = 0
        self.crashes = 0
        self.retries = 0
        self.quarantined = 0
        self.heartbeats = 0
        self.dispatches = 0

    # ------------------------------------------------------------------
    def execute(
        self,
        units: Sequence[Sequence],
        keys: Sequence[Sequence[str]],
        ckpt_root: Optional[str],
        resume_ok: bool,
        chaos=None,
        on_outcome: Optional[Callable[[int, int, object], None]] = None,
    ) -> List[List[object]]:
        """Run every chain; returns per-unit outcome lists (unit order).

        ``on_outcome(unit_id, position, outcome)`` fires the moment a
        job's result crosses the pipe — before any other job finishes —
        so the caller can commit partial results durably (the property
        SIGINT flushing and crash recovery both lean on).
        """
        states = [
            _Unit(jobs=list(jobs), keys=list(unit_keys),
                  outcomes=[None] * len(jobs))
            for jobs, unit_keys in zip(units, keys)
        ]
        queue: List[int] = list(range(len(states)))
        try:
            while queue or self._active:
                self._launch_ready(
                    states, queue, ckpt_root, resume_ok, chaos
                )
                self._poll(states, queue, on_outcome)
            return [unit.outcomes for unit in states]
        except BaseException:
            self.shutdown()
            raise
        finally:
            self._set_gauges()

    # ------------------------------------------------------------------
    def _launch_ready(
        self, states, queue, ckpt_root, resume_ok, chaos
    ) -> None:
        now = self._clock()
        ready = [u for u in queue if states[u].ready_at <= now]
        for unit_id in ready:
            if len(self._active) >= self.workers:
                break
            queue.remove(unit_id)
            unit = states[unit_id]
            if unit.done:
                continue
            jobs = unit.jobs[unit.next_index:]
            tokens: List[Optional[str]] = []
            trace: List = []
            for offset, _job in enumerate(jobs):
                position = unit.next_index + offset
                attempt = unit.attempts.get(position, 0)
                decision = (
                    chaos.decision(unit.keys[position], attempt)
                    if chaos is not None else None
                )
                tokens.append(
                    decision.token() if decision is not None else None
                )
                trace.append((unit.keys[position], attempt))
            recv, send = self._ctx.Pipe(duplex=False)
            hang_s = chaos.plan.hang_s if chaos is not None else 0.0
            sweep_id = (
                self.telemetry.sweep_id
                if self.telemetry is not None else None
            )
            proc = self._ctx.Process(
                target=_child_main,
                args=(
                    send, jobs, ckpt_root, resume_ok, tokens,
                    self.heartbeat_s, hang_s, sweep_id, trace,
                ),
                daemon=True,
            )
            proc.start()
            send.close()  # parent keeps only the receive end
            self.dispatches += 1
            now = self._clock()
            self._active[unit_id] = _Handle(
                unit_id=unit_id, proc=proc, conn=recv,
                base=unit.next_index,
                lease_deadline=now + self.lease_s, last_beat=now,
            )
            self._journal("start", unit.keys[unit.next_index])
            if self.telemetry is not None:
                self.telemetry.job_scheduled(
                    unit.keys[unit.next_index],
                    attempt=unit.attempts.get(unit.next_index, 0),
                    worker=proc.pid,
                )

    # ------------------------------------------------------------------
    def _poll(self, states, queue, on_outcome) -> None:
        if not self._active:
            # Everything pending is in backoff: sleep to the earliest.
            soonest = min(
                (states[u].ready_at for u in queue), default=None
            )
            if soonest is not None:
                delay = soonest - self._clock()
                if delay > 0:
                    time.sleep(min(delay, 0.5))
            return
        timeout = self._poll_timeout(states, queue)
        conns = [h.conn for h in self._active.values()]
        try:
            readable = mp_connection.wait(conns, timeout)
        except OSError:
            readable = []
        by_conn = {h.conn: h for h in self._active.values()}
        for conn in readable:
            handle = by_conn.get(conn)
            if handle is not None:
                self._drain(handle, states, on_outcome)
        now = self._clock()
        for handle in list(self._active.values()):
            unit = states[handle.unit_id]
            if handle.finished:
                self._retire(handle)
            elif not handle.proc.is_alive():
                # One final drain: results may have landed in the pipe
                # just before the process died.
                self._drain(handle, states, on_outcome)
                if handle.finished:
                    self._retire(handle)
                elif not unit.done:
                    self._reclaim(handle, states, queue, crashed=True)
                else:
                    self._retire(handle)
            elif now > handle.lease_deadline:
                handle.proc.kill()
                handle.proc.join()
                self._drain(handle, states, on_outcome)
                if not unit.done:
                    self._reclaim(handle, states, queue, crashed=False)
                else:
                    self._retire(handle)
        if self.metrics is not None:
            self.metrics.gauge("fleet.live_workers").set(len(self._active))
        if self.telemetry is not None:
            self.telemetry.workers_busy(len(self._active), self.workers)
            self.telemetry.maybe_flush()

    def _poll_timeout(self, states, queue) -> float:
        now = self._clock()
        horizon = now + self.heartbeat_s
        for handle in self._active.values():
            horizon = min(horizon, handle.lease_deadline)
        for unit_id in queue:
            horizon = min(horizon, states[unit_id].ready_at)
        return min(max(horizon - now, 0.01), 0.5)

    # ------------------------------------------------------------------
    def _drain(self, handle: _Handle, states, on_outcome) -> None:
        unit = states[handle.unit_id]
        while True:
            try:
                if not handle.conn.poll():
                    return
                kind, position, payload = handle.conn.recv()
            except (EOFError, OSError):
                return
            if kind == "beat":
                handle.last_beat = self._clock()
                self.heartbeats += 1
            elif kind == "tele":
                if self.telemetry is not None:
                    self.telemetry.ingest(payload)
            elif kind == "done":
                index = handle.base + position
                unit.outcomes[index] = payload
                unit.next_index = max(unit.next_index, index + 1)
                handle.lease_deadline = self._clock() + self.lease_s
                key = unit.keys[index]
                if payload is not None and payload.ok:
                    self._journal(
                        "done", key, elapsed_s=payload.elapsed_s
                    )
                else:
                    self._journal(
                        "failed", key,
                        error=None if payload is None else payload.error,
                    )
                if not unit.done:
                    self._journal("start", unit.keys[unit.next_index])
                    if self.telemetry is not None:
                        self.telemetry.job_scheduled(
                            unit.keys[unit.next_index],
                            attempt=unit.attempts.get(
                                unit.next_index, 0
                            ),
                            worker=handle.proc.pid,
                        )
                if on_outcome is not None:
                    on_outcome(handle.unit_id, index, payload)
            elif kind == "exit":
                handle.finished = True

    def _retire(self, handle: _Handle) -> None:
        self._active.pop(handle.unit_id, None)
        try:
            handle.conn.close()
        except OSError:
            pass
        handle.proc.join()

    def _reclaim(self, handle: _Handle, states, queue, crashed: bool) -> None:
        """A worker died or overstayed its lease: revoke, retry or
        quarantine, and put the chain's remainder back in play."""
        from .engine import JobOutcome, _error_record

        self._retire(handle)
        unit = states[handle.unit_id]
        position = unit.next_index
        job = unit.jobs[position]
        key = unit.keys[position]
        attempts = unit.attempts.get(position, 0) + 1
        unit.attempts[position] = attempts
        self.reclaimed += 1
        if crashed:
            self.crashes += 1
            reason: Exception = WorkerCrashError(
                f"worker for {job.workload!r} died without reporting "
                f"(attempt {attempts})"
            )
        else:
            self.lease_expiries += 1
            reason = LeaseExpiredError(
                f"worker for {job.workload!r} exceeded its "
                f"{self.lease_s:.1f}s lease (attempt {attempts}); "
                "killed and reclaimed"
            )
        _log.warning("reclaimed job %s: %s", key[:12], reason)
        self._journal(
            "reclaimed", key,
            reason=type(reason).__name__, attempts=attempts,
        )
        if self.telemetry is not None:
            self.telemetry.job_reclaimed(
                key, attempt=attempts,
                reason=type(reason).__name__,
                retrying=attempts < self.retry.max_attempts,
            )
        if attempts >= self.retry.max_attempts:
            poison = PoisonJobError(
                f"job {job.workload!r} took down "
                f"{attempts} workers; quarantined "
                f"(last strike: {reason})",
                strikes=attempts,
            )
            outcome = JobOutcome(
                error=_error_record(job, poison, retried=True)
            )
            outcome.error["strikes"] = attempts
            unit.outcomes[position] = outcome
            unit.next_index = position + 1
            self.quarantined += 1
            self._journal("quarantined", key, error=outcome.error)
            unit.ready_at = self._clock()  # rest of the chain is innocent
        else:
            self.retries += 1
            unit.ready_at = self._clock() + self.retry.delay(attempts, key)
        if not unit.done:
            queue.append(handle.unit_id)

    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        """Kill every live worker (SIGINT/SIGTERM path) and reset."""
        for handle in list(self._active.values()):
            try:
                handle.proc.kill()
            except (OSError, ValueError):
                pass
            handle.proc.join()
            try:
                handle.conn.close()
            except OSError:
                pass
        self._active.clear()

    # ------------------------------------------------------------------
    def _journal(self, event: str, key: str, **data) -> None:
        if self.journal is not None:
            self.journal.append(event, key=key, **data)

    def _set_gauges(self) -> None:
        if self.metrics is None:
            return
        gauges = {
            "fleet.live_workers": len(self._active),
            "fleet.lease_expiries": self.lease_expiries,
            "fleet.worker_crashes": self.crashes,
            "fleet.reclaimed": self.reclaimed,
            "fleet.retries": self.retries,
            "fleet.quarantined": self.quarantined,
            "fleet.heartbeats": self.heartbeats,
            "fleet.dispatches": self.dispatches,
        }
        for name, value in gauges.items():
            self.metrics.gauge(name).set(value)
