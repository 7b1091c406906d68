"""Content-addressed on-disk cache for simulation results.

Every simulation here is deterministic (PR 2 made runs bit-for-bit
reproducible), so a result is a pure function of its full job
specification — workload, machine/Trident configuration, budgets, fault
plan, sampling interval — plus the simulator source itself.  The cache
exploits that: a :class:`ResultCache` entry is keyed by a stable SHA-256
over the canonical JSON of the job spec *and* a code-version stamp
hashed over every ``repro`` source file, so any change to the simulator
silently invalidates every prior entry.

Entries store ``SimulationResult.to_dict()`` (plus the wall time the
original run cost, so the engine can report time saved).  Writes are
atomic and durable — payload goes to a same-directory temp file first,
is fsynced, then ``os.replace``d — so concurrent writers (parallel
engine workers, two bench invocations) can never tear an entry and a
power cut never leaves a half-entry under the final name; last writer
wins with an identical payload anyway.

The read path is checksum-verified: every entry carries ``sum``, a
truncated SHA-256 over the canonical JSON of its result payload.  An
entry that fails to parse, has the wrong shape, or fails its checksum
is **quarantined** — moved aside to ``<root>/quarantine/`` for autopsy,
logged, and treated as a miss so the job re-simulates (degrade to a
cold run, never an error).  A full disk degrades the whole cache to
cache-off mode for the rest of the process instead of failing every
store.

The cache root is ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``; entries
live under ``<root>/results/<key[:2]>/<key>.json``.
"""

from __future__ import annotations

import errno
import hashlib
import itertools
import json
import os
import pathlib
import threading
from typing import Dict, Optional

from ..logutil import get_logger

_log = get_logger("cache")

#: errno values that mean "storage is out of room", not "this write is
#: bad": the store disables itself instead of failing every later write.
_DISK_FULL_ERRNOS = frozenset(
    code
    for code in (
        getattr(errno, "ENOSPC", None),
        getattr(errno, "EDQUOT", None),
    )
    if code is not None
)

#: Bumped whenever the entry payload layout changes; part of the key, so
#: old-layout entries become unreachable rather than misparsed.
SCHEMA_VERSION = 1

#: Environment override for the cache root directory.
ENV_CACHE_DIR = "REPRO_CACHE_DIR"

#: Environment override for the code-version stamp (tests use this to
#: simulate a source change without editing files).
ENV_CODE_VERSION = "REPRO_CODE_VERSION"

_code_version_cache: Optional[str] = None

#: Monotonic suffix keeping same-thread temp files distinct too.
_tmp_counter = itertools.count()


def default_cache_dir() -> pathlib.Path:
    """``$REPRO_CACHE_DIR`` or ``~/.cache/repro``."""
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return pathlib.Path(env)
    return pathlib.Path.home() / ".cache" / "repro"


def code_version() -> str:
    """A stamp that changes whenever any ``repro`` source file changes.

    SHA-256 over every ``.py`` file under the package directory (relative
    path + contents, sorted), memoised per process.  ``REPRO_CODE_VERSION``
    overrides it, which tests use to exercise invalidation.
    """
    env = os.environ.get(ENV_CODE_VERSION)
    if env:
        return env
    global _code_version_cache
    if _code_version_cache is None:
        package_root = pathlib.Path(__file__).resolve().parents[1]
        digest = hashlib.sha256()
        for path in sorted(package_root.glob("**/*.py")):
            digest.update(str(path.relative_to(package_root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _code_version_cache = digest.hexdigest()
    return _code_version_cache


def stable_hash(spec: Dict) -> str:
    """SHA-256 of the canonical (sorted, compact) JSON of ``spec``."""
    canonical = json.dumps(
        spec, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


def payload_checksum(result: Dict) -> str:
    """Truncated stable hash guarding one entry's result payload."""
    return stable_hash(result)[:16]


class ResultCache:
    """Content-addressed store of serialised simulation results.

    All I/O failure modes degrade to "cache off" behaviour: an unwritable
    root skips stores, an unreadable or corrupt entry is a miss.  The
    simulation always wins over the cache.
    """

    def __init__(self, root: Optional[os.PathLike] = None) -> None:
        self.root = pathlib.Path(root) if root else default_cache_dir()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        #: Entries moved aside after failing parse/shape/checksum checks.
        self.quarantined = 0
        #: Set once the disk fills up; all later stores become no-ops.
        self.disabled = False

    # ------------------------------------------------------------------
    # Keys and paths.
    # ------------------------------------------------------------------
    def key_for(self, spec: Dict) -> str:
        """The content address of a job spec (code version included)."""
        return stable_hash(
            {
                "schema": SCHEMA_VERSION,
                "code_version": code_version(),
                "spec": spec,
            }
        )

    def path_for(self, key: str) -> pathlib.Path:
        return self.root / "results" / key[:2] / f"{key}.json"

    # ------------------------------------------------------------------
    # Lookup / store.
    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[Dict]:
        """The stored payload for ``key``, or None on miss/corruption.

        The payload is ``{"schema", "spec", "elapsed_s", "result", "sum"}``;
        anything that does not parse to that shape, or whose ``sum`` does
        not match its result payload, is quarantined and counted a miss.
        """
        path = self.path_for(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                raw = handle.read()
        except OSError:
            self.misses += 1
            return None
        try:
            payload = json.loads(raw)
            good_shape = (
                isinstance(payload, dict)
                and payload.get("schema") == SCHEMA_VERSION
                and isinstance(payload.get("result"), dict)
            )
        except ValueError:
            payload, good_shape = None, False
        if not good_shape:
            self._quarantine(key, path, "unparseable or bad shape")
            self.misses += 1
            return None
        expected = payload.get("sum")
        if expected is not None and expected != payload_checksum(
            payload["result"]
        ):
            self._quarantine(key, path, "checksum mismatch")
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def put(
        self, key: str, spec: Dict, result: Dict, elapsed_s: float
    ) -> bool:
        """Durably store one result; returns False when storage fails."""
        if self.disabled:
            return False
        path = self.path_for(key)
        payload = {
            "schema": SCHEMA_VERSION,
            "spec": spec,
            "elapsed_s": elapsed_s,
            "result": result,
            "sum": payload_checksum(result),
        }
        # Unique per process, thread, and call: concurrent writers (worker
        # processes, threaded benches) must never share a temp file.
        tmp = path.with_name(
            f".{path.name}.tmp.{os.getpid()}."
            f"{threading.get_ident()}.{next(_tmp_counter)}"
        )
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            # Insertion order is preserved deliberately: a replayed
            # result's to_dict() must be byte-identical to the live
            # run's, ordering included (sorting here would alphabetise
            # nested dicts like the load-outcome breakdown).
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(payload, handle)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        except OSError as exc:
            if exc.errno in _DISK_FULL_ERRNOS:
                _log.warning(
                    "cache disk full (%s); disabling stores for this run",
                    exc,
                )
                self.disabled = True
            else:
                _log.debug("cache store failed for %s: %s", key, exc)
            try:
                tmp.unlink()
            except OSError:
                pass
            return False
        self.stores += 1
        return True

    # ------------------------------------------------------------------
    # Corruption handling.
    # ------------------------------------------------------------------
    def quarantine_dir(self) -> pathlib.Path:
        return self.root / "quarantine"

    def _quarantine(self, key: str, path: pathlib.Path, reason: str) -> None:
        """Move a corrupt entry aside for autopsy; never raises."""
        _log.warning("cache entry %s %s; quarantining", key, reason)
        dest = self.quarantine_dir() / path.name
        try:
            dest.parent.mkdir(parents=True, exist_ok=True)
            os.replace(path, dest)
        except OSError:
            # Quarantine is best-effort: an undeletable corrupt entry
            # still reads as a miss, it just stays in place.
            try:
                path.unlink()
            except OSError:
                return
        self.quarantined += 1
