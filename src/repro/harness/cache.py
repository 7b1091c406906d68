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
original run cost, so the engine can report time saved) and ``sum``, a
truncated SHA-256 over the canonical JSON of that result payload.  A
result is a plain value whose fields are exactly that payload, so
``SimulationResult.from_dict`` rebuilds the same class the live run
returned, equal to it and byte-identical when re-serialised.  The
durability rules — atomic synced publish, quarantine of entries that
fail their verified read, cache-off mode on a full disk — come from
:class:`~repro.harness.blobstore.BlobStore`; this module adds only the
key, the path layout and the entry check: an entry must parse to the
right shape, match its ``sum`` and decode into a
:class:`~repro.harness.runner.SimulationResult`, or it is a quarantined
miss and the job re-simulates.

The cache root is ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``; entries
live under ``<root>/results/<key[:2]>/<key>.json``.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
from typing import Dict, Optional

from .blobstore import BlobStore, payload_checksum, stable_hash
from .runner import SimulationResult

#: Bumped whenever the entry payload layout changes; part of the key, so
#: old-layout entries become unreachable rather than misparsed.
SCHEMA_VERSION = 1

#: Environment override for the code-version stamp (tests use this to
#: simulate a source change without editing files).
ENV_CODE_VERSION = "REPRO_CODE_VERSION"

_code_version_cache: Optional[str] = None


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


def _verified_entry(raw: bytes) -> Dict:
    """Parse one entry; raises ValueError (or a decode error) unless it
    has the right shape, matches its ``sum`` and decodes as a result."""
    payload = json.loads(raw)
    if not (
        isinstance(payload, dict)
        and payload.get("schema") == SCHEMA_VERSION
        and isinstance(payload.get("result"), dict)
    ):
        raise ValueError("unparseable or bad shape")
    expected = payload.get("sum")
    if expected is not None and expected != payload_checksum(
        payload["result"]
    ):
        raise ValueError("checksum mismatch")
    payload["replay"] = SimulationResult.from_dict(payload["result"])
    return payload


class ResultCache(BlobStore):
    """Content-addressed store of serialised simulation results."""

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

        The payload is ``{"schema", "spec", "elapsed_s", "result", "sum"}``
        plus ``replay``, the decoded :class:`SimulationResult`; an entry
        that fails :func:`_verified_entry` is quarantined and counted a
        miss.  Entries written before the ``sum`` field are verified by
        shape and decode alone.
        """
        return self.fetch([self.path_for(key)], _verified_entry)

    def put(
        self, key: str, spec: Dict, result: Dict, elapsed_s: float
    ) -> bool:
        """Durably store one result; returns False when storage fails."""
        payload = {
            "schema": SCHEMA_VERSION,
            "spec": spec,
            "elapsed_s": elapsed_s,
            "result": result,
            "sum": payload_checksum(result),
        }
        # Insertion order is preserved deliberately: a replayed result's
        # to_dict() must be byte-identical to the live run's, ordering
        # included (sorting here would alphabetise nested dicts like the
        # load-outcome breakdown).
        return self.write(self.path_for(key), json.dumps(payload).encode())
