"""Durable job journal: an append-only, checksummed write-ahead log of
fleet state.

Every state transition of every job in a sweep — submit, start, done,
failed, reclaimed, quarantined, cached — is one JSONL record appended to
``<dir>/journal.jsonl`` and fsynced before the engine moves on.  A
killed process, a SIGINT mid-sweep, or a torn write therefore never
loses *accounting*: :meth:`JobJournal.recover` replays the log —
skipping any record whose checksum does not verify, which is exactly
what a torn tail or a flipped bit looks like — and reconstructs the
per-job state machine, so ``repro resume-sweep`` can re-dispatch only
the work that never finished.

Design points, in the spirit of the paper's cheap-common-case rule:

* **Append-only.**  A record is one line; the only mutation the happy
  path ever performs is ``write + flush + fsync``.  No index, no seek,
  no in-place update to corrupt.
* **Self-verifying records.**  Each record carries ``sum``, the
  :func:`~repro.harness.blobstore.payload_checksum` of the rest of the
  record (the checksum that also guards result-cache entries).
  Recovery treats a line that fails to parse *or* to verify as absent —
  torn writes tear exactly one record, never the log.
* **Non-fatal by construction.**  Once open, append failures degrade to
  a disabled journal (logged) rather than failing the sweep; the journal
  observes the fleet, it must never kill it.
"""

from __future__ import annotations

import json
import os
import pathlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..errors import JournalError
from ..logutil import get_logger
from .blobstore import payload_checksum, stable_hash

_log = get_logger("journal")

#: Bumped when the record layout changes; old-version records are
#: skipped by recovery rather than misread.
FORMAT_VERSION = 1

#: The journal file name inside the journal directory.
JOURNAL_NAME = "journal.jsonl"

#: Every event recovery understands.  Unknown events are skipped (a
#: newer writer's log still recovers on an older reader).
EVENTS = (
    "sweep",        # sweep metadata (argv); not tied to a job key
    "submit",       # job entered the engine (data carries the job dict)
    "cached",       # replayed from the result cache, no simulation
    "start",        # dispatched to a worker
    "done",         # result committed
    "failed",       # job-level error record (worker survived)
    "reclaimed",    # worker died or lease expired; job requeued
    "quarantined",  # poisoned after repeated strikes; removed from play
    "interrupted",  # the sweep was cancelled (SIGINT/SIGTERM)
)

@dataclass
class JobRecord:
    """The recovered state of one journaled job."""

    key: str
    state: str = "submitted"
    #: The ``SimJob.to_dict()`` payload from the submit record, if any —
    #: what ``resume-sweep`` rebuilds the job from.
    job: Optional[Dict] = None
    #: Times the job was reclaimed from a dead or expired worker.
    strikes: int = 0
    error: Optional[Dict] = None
    elapsed_s: float = 0.0

    @property
    def finished(self) -> bool:
        return self.state in ("done", "quarantined", "failed")


@dataclass
class JournalState:
    """What :meth:`JobJournal.recover` reconstructs from the log."""

    #: Per-key job records, in first-submit order.
    jobs: Dict[str, JobRecord] = field(default_factory=dict)
    #: The last ``sweep`` metadata record (argv of the original run).
    sweep: Optional[Dict] = None
    #: Highest sequence number seen (appends continue after it).
    last_seq: int = 0
    #: Records that parsed and verified.
    records: int = 0
    #: Lines dropped by the parse/checksum gate (torn or corrupt).
    skipped: int = 0
    #: Byte offset (into the journal file) of the first dropped line —
    #: where to look when diagnosing a torn or corrupted log.
    first_skipped_offset: Optional[int] = None
    interrupted: bool = False

    def unfinished(self) -> List[JobRecord]:
        """Jobs with no terminal event — what a resume re-dispatches."""
        return [r for r in self.jobs.values() if not r.finished]


class JobJournal:
    """Append-only checksummed journal under one directory.

    Every append is fsynced through to the platform's disk before the
    engine proceeds.
    """

    def __init__(self, root: os.PathLike) -> None:
        self.root = pathlib.Path(root)
        self.path = self.root / JOURNAL_NAME
        self.disabled = False
        self.appended = 0
        self._seq = 0
        self._handle = None
        #: Chaos/test seam: a callable applied to each serialised line
        #: (checksum included) just before it is written.  The chaos
        #: harness uses it to tear a record mid-write.
        self.write_filter: Optional[Callable[[str], str]] = None
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise JournalError(
                f"cannot create journal directory {self.root}: {exc}"
            ) from None
        if self.path.exists():
            self._seq = self.recover().last_seq

    # ------------------------------------------------------------------
    # Append path.
    # ------------------------------------------------------------------
    def _open(self):
        if self._handle is None:
            self._handle = open(self.path, "a", encoding="utf-8")
        return self._handle

    def append(
        self, event: str, key: Optional[str] = None, **data
    ) -> Optional[int]:
        """Append one fsynced record; returns its sequence number.

        A journal that hits an I/O error disables itself (the sweep
        continues unjournalled) and returns None.
        """
        if self.disabled:
            return None
        if event not in EVENTS:
            raise JournalError(f"unknown journal event {event!r}")
        self._seq += 1
        record = {
            "v": FORMAT_VERSION,
            "seq": self._seq,
            "event": event,
            "key": key,
        }
        if data:
            record["data"] = data
        record["sum"] = payload_checksum(record)
        line = json.dumps(
            record, sort_keys=True, separators=(",", ":"), ensure_ascii=True
        )
        if self.write_filter is not None:
            line = self.write_filter(line)
        try:
            handle = self._open()
            handle.write(line + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        except OSError as exc:
            _log.warning("journal disabled after write failure: %s", exc)
            self.disabled = True
            return None
        self.appended += 1
        return self._seq

    def close(self) -> None:
        if self._handle is not None:
            try:
                self._handle.close()
            except OSError:
                pass
            self._handle = None

    # ------------------------------------------------------------------
    # Recovery.
    # ------------------------------------------------------------------
    def recover(self) -> JournalState:
        """Replay the log into a :class:`JournalState`.

        Never raises on content: unparsable or checksum-failing lines
        (torn writes, bit rot) are counted in ``skipped`` and ignored, so
        a truncated log recovers to the longest verified prefix of each
        job's history.  Skips are *not* silent: a warning names the byte
        offset of the first dropped line and the counts, so a torn tail
        is diagnosable without replaying the recovery by hand.
        """
        state = JournalState()
        try:
            with open(self.path, "rb") as handle:
                raw = handle.read()
        except OSError:
            return state
        offset = 0
        for raw_line in raw.split(b"\n"):
            line_start = offset
            offset += len(raw_line) + 1
            if not raw_line.strip():
                continue
            try:
                record = self._verify(raw_line.decode("utf-8"))
            except UnicodeDecodeError:
                record = None
            if record is None:
                state.skipped += 1
                if state.first_skipped_offset is None:
                    state.first_skipped_offset = line_start
                continue
            state.records += 1
            state.last_seq = max(state.last_seq, record.get("seq", 0))
            self._apply(state, record)
        if state.skipped:
            _log.warning(
                "journal %s: dropped %d torn or corrupt line(s) "
                "(first at byte offset %d of %d); recovered %d "
                "verified record(s)",
                self.path,
                state.skipped,
                state.first_skipped_offset,
                len(raw),
                state.records,
            )
        return state

    @staticmethod
    def _verify(line: str) -> Optional[Dict]:
        try:
            record = json.loads(line)
        except ValueError:
            return None
        if not isinstance(record, dict) or record.get("v") != FORMAT_VERSION:
            return None
        expected = record.pop("sum", None)
        if expected != payload_checksum(record):
            return None
        return record

    @staticmethod
    def _apply(state: JournalState, record: Dict) -> None:
        event = record.get("event")
        data = record.get("data") or {}
        if event == "sweep":
            state.sweep = data
            return
        if event == "interrupted":
            state.interrupted = True
            return
        key = record.get("key")
        if not isinstance(key, str) or event not in EVENTS:
            return
        job = state.jobs.get(key)
        if job is None:
            job = state.jobs[key] = JobRecord(key=key)
        if event == "submit":
            if isinstance(data.get("job"), dict):
                job.job = data["job"]
            if job.state != "done":
                job.state = "submitted"
        elif event == "start":
            job.state = "running"
        elif event == "done":
            job.state = "done"
            job.error = None
            elapsed = data.get("elapsed_s")
            if isinstance(elapsed, (int, float)):
                job.elapsed_s = float(elapsed)
        elif event == "cached":
            job.state = "done"
            job.error = None
        elif event == "failed":
            job.state = "failed"
            job.error = data.get("error")
        elif event == "reclaimed":
            job.state = "submitted"
            job.strikes += 1
        elif event == "quarantined":
            job.state = "quarantined"
            job.error = data.get("error")


def job_key(spec: Dict) -> str:
    """The journal/chaos identity of a job: a stable hash of its spec.

    Deliberately excludes the code-version stamp the result cache mixes
    in — journal keys must survive a commit so chaos schedules and
    resumed sweeps stay aligned with their logs.
    """
    return stable_hash(spec)
