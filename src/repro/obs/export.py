"""Trace and metrics exporters: JSONL and Chrome trace-event JSON.

Two formats, one event stream:

* **JSONL** — one ``{"cycle": ..., "kind": ..., ...}`` object per line;
  greppable, diffable (the determinism tests compare these byte for
  byte), and the input format of ``tools/render_timeline.py``.
* **Chrome trace-event JSON** — loadable in Perfetto
  (https://ui.perfetto.dev) or chrome://tracing.  Simulated cycles are
  mapped 1:1 onto microseconds.  Tracks: the main core, the helper
  context (optimization jobs as duration slices), one track per memory
  level (fills), the Trident monitoring hardware (delinquent-load
  events, repairs, maturity), fault injections, and the interval
  sampler's windowed IPC / miss-rate as counter tracks.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional, Sequence

from .events import TraceEvent

#: Stable track (tid) assignment inside the single simulator "process".
_PID = 0
_TRACKS = {
    "core": 1,
    "helper": 2,
    "memory.l2": 3,
    "memory.l3": 4,
    "memory.mem": 5,
    "trident": 6,
    "faults": 7,
}
_TRACK_NAMES = {
    1: "main core",
    2: "helper thread",
    3: "memory: L2 fills",
    4: "memory: L3 fills",
    5: "memory: DRAM fills",
    6: "trident monitoring",
    7: "fault injector",
}

_CORE_KINDS = frozenset({"trace_enter", "trace_exit"})
_HELPER_KINDS = frozenset({"helper_begin", "helper_end", "helper_fail"})
_TRIDENT_KINDS = frozenset(
    {
        "dl_event",
        "dl_event_lost",
        "insert",
        "repair",
        "mature",
        "phase_change",
        "trace_link",
        "trace_unlink",
    }
)


def write_jsonl(events: Iterable[TraceEvent], path: str) -> int:
    """Write one JSON object per event; returns the number written."""
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for event in events:
            fh.write(json.dumps(event.to_dict(), sort_keys=True))
            fh.write("\n")
            count += 1
    return count


def read_jsonl(path: str) -> List[Dict]:
    """Load a JSONL export back into dicts (tooling / tests)."""
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def _track_for(event: TraceEvent) -> int:
    kind = event.kind
    if kind in _CORE_KINDS:
        return _TRACKS["core"]
    if kind in _HELPER_KINDS:
        return _TRACKS["helper"]
    if kind == "fill":
        level = event.fields.get("level", "mem")
        return _TRACKS.get(f"memory.{level}", _TRACKS["memory.mem"])
    if kind == "fault":
        return _TRACKS["faults"]
    return _TRACKS["trident"]


def _instant(event: TraceEvent, tid: int) -> Dict:
    return {
        "name": event.kind,
        "ph": "i",
        "s": "t",
        "ts": event.cycle,
        "pid": _PID,
        "tid": tid,
        "args": dict(event.fields),
    }


def chrome_trace(
    events: Sequence[TraceEvent],
    metadata: Optional[Dict] = None,
) -> Dict:
    """Convert an event stream to a Chrome trace-event JSON object."""
    trace_events: List[Dict] = [
        {
            "name": "thread_name",
            "ph": "M",
            "pid": _PID,
            "tid": tid,
            "args": {"name": name},
        }
        for tid, name in sorted(_TRACK_NAMES.items())
    ]
    trace_events.insert(
        0,
        {
            "name": "process_name",
            "ph": "M",
            "pid": _PID,
            "tid": 0,
            "args": {"name": "repro simulator"},
        },
    )
    for event in events:
        kind = event.kind
        if kind == "helper_end" and "began" in event.fields:
            # Render the whole job as one complete slice on the helper
            # track: dispatch -> completion.
            began = event.fields["began"]
            args = dict(event.fields)
            trace_events.append(
                {
                    "name": f"helper:{args.get('job', 'job')}",
                    "ph": "X",
                    "ts": began,
                    "dur": max(0.0, event.cycle - began),
                    "pid": _PID,
                    "tid": _TRACKS["helper"],
                    "args": args,
                }
            )
            continue
        if kind == "helper_begin":
            # The matching helper_end draws the slice; the begin marker
            # is redundant in the visual timeline.
            continue
        if kind == "sample":
            # Counter tracks: Perfetto plots args values over time.
            for counter, key in (
                ("windowed IPC", "ipc"),
                ("windowed miss rate", "miss_rate"),
            ):
                if key in event.fields:
                    trace_events.append(
                        {
                            "name": counter,
                            "ph": "C",
                            "ts": event.cycle,
                            "pid": _PID,
                            "args": {key: event.fields[key]},
                        }
                    )
            continue
        trace_events.append(_instant(event, _track_for(event)))
    payload = {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "metadata": metadata or {},
    }
    return payload


def write_chrome_trace(
    events: Sequence[TraceEvent],
    path: str,
    metadata: Optional[Dict] = None,
) -> int:
    """Write a Perfetto-loadable trace; returns the event count."""
    payload = chrome_trace(events, metadata=metadata)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return len(payload["traceEvents"])


#: Phase values the trace-event format defines for the subset we emit.
_VALID_PHASES = frozenset({"i", "X", "M", "C", "B", "E"})


def validate_chrome_trace(payload: Dict) -> List[str]:
    """Schema-check a Chrome trace object; returns a list of problems.

    An empty list means the export is structurally loadable.
    """
    problems: List[str] = []
    if not isinstance(payload, dict):
        return ["top level is not an object"]
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents missing or not a list"]
    if not events:
        problems.append("traceEvents is empty")
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"event {i} is not an object")
            continue
        ph = event.get("ph")
        if ph not in _VALID_PHASES:
            problems.append(f"event {i} has invalid ph {ph!r}")
            continue
        if "name" not in event:
            problems.append(f"event {i} has no name")
        if ph != "M":
            if not isinstance(event.get("ts"), (int, float)):
                problems.append(f"event {i} ({event.get('name')}) has no ts")
        if ph == "X" and not isinstance(event.get("dur"), (int, float)):
            problems.append(f"event {i} is ph=X without dur")
        if "pid" not in event:
            problems.append(f"event {i} has no pid")
    return problems


def write_metrics(snapshot: Dict, path: str) -> None:
    """Write a consolidated metrics/observer snapshot as JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(snapshot, fh, indent=2, sort_keys=True)


# ----------------------------------------------------------------------
# Fleet span traces: stitch engine + N worker processes into one file.
# ----------------------------------------------------------------------
#: Spans treated as instants even when they carry a duration (markers).
_FLEET_INSTANTS = frozenset(
    {
        "submit",
        "schedule",
        "commit",
        "reclaim",
        "retry",
        "quarantine",
        "checkpoint-capture",
        "sample",
    }
)


def fleet_chrome_trace(
    spans: Sequence[Dict],
    metadata: Optional[Dict] = None,
) -> Dict:
    """Convert serialised fleet spans into one Chrome trace object.

    Where :func:`chrome_trace` maps one simulation's cycles onto one
    Perfetto process, this maps the *fleet*: each recording OS process
    (the engine, every supervised worker) becomes a Perfetto
    process, and within a process each job gets its own track, numbered
    in first-seen order by a per-process
    :class:`~repro.trident.TraceIdAllocator` so two exports of the same
    run lay out identically.  Wall-clock seconds — the one timebase all
    processes share — map onto trace microseconds, zeroed at the
    earliest span.
    """
    from ..trident import TraceIdAllocator

    starts = [
        s.get("start_s", 0.0) for s in spans
        if isinstance(s.get("start_s"), (int, float))
    ]
    t0 = min(starts) if starts else 0.0
    trace_events: List[Dict] = []
    #: pid -> role ("engine" lanes sort before workers in the UI).
    roles: Dict[int, str] = {}
    #: pid -> (allocator, {job_key or None: tid}).
    tracks: Dict[int, tuple] = {}

    def track_for(pid: int, job_key) -> int:
        allocator, by_job = tracks.setdefault(
            pid, (TraceIdAllocator(), {})
        )
        tid = by_job.get(job_key)
        if tid is None:
            tid = by_job[job_key] = allocator.next()
            label = (
                f"job {job_key[:12]}" if job_key is not None else "sweep"
            )
            trace_events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": label},
                }
            )
        return tid

    for span in spans:
        pid = int(span.get("pid", 0))
        role = span.get("role", "worker")
        if pid not in roles:
            roles[pid] = role
            trace_events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "args": {
                        "name": (
                            f"repro engine (pid {pid})"
                            if role == "engine"
                            else f"repro worker (pid {pid})"
                        )
                    },
                }
            )
        tid = track_for(pid, span.get("job_key"))
        ts = (span.get("start_s", t0) - t0) * 1e6
        args = dict(span.get("fields") or {})
        args["job_key"] = span.get("job_key")
        args["attempt"] = span.get("attempt", 0)
        name = span.get("name", "span")
        end_s = span.get("end_s")
        is_instant = (
            name in _FLEET_INSTANTS
            or span.get("type") == "sample"
            or not isinstance(end_s, (int, float))
        )
        if is_instant:
            trace_events.append(
                {
                    "name": name,
                    "ph": "i",
                    "s": "t",
                    "ts": ts,
                    "pid": pid,
                    "tid": tid,
                    "args": args,
                }
            )
        else:
            trace_events.append(
                {
                    "name": name,
                    "ph": "X",
                    "ts": ts,
                    "dur": max(0.0, (end_s - span["start_s"]) * 1e6),
                    "pid": pid,
                    "tid": tid,
                    "args": args,
                }
            )
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "metadata": metadata or {},
    }


def write_fleet_trace(
    spans: Sequence[Dict],
    path: str,
    metadata: Optional[Dict] = None,
) -> int:
    """Write the stitched fleet trace; returns the event count."""
    payload = fleet_chrome_trace(spans, metadata=metadata)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return len(payload["traceEvents"])
