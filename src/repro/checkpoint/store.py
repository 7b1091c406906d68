"""Prefix-keyed on-disk store of simulator checkpoints.

The result cache (:mod:`repro.harness.cache`) keys on the *full* job
spec: same budget or nothing.  The checkpoint store keys on the job's
**prefix spec** — the full canonical spec with ``max_instructions``
removed — because a deterministic simulation's state at N committed
instructions is identical for every budget ≥ N.  A sweep that asks for
ascending budgets B1 < B2 < B3 therefore pays full price once: each run
stores its end-of-run snapshot under the shared prefix key, and the next
run resumes from the largest stored checkpoint not past its own target.

Layout mirrors the result cache, under the same root::

    <root>/checkpoints/<prefix[:2]>/<prefix>/<committed>.ckpt

One file per captured committed-instruction count, named so lookup is a
directory listing plus an integer compare — no index file to corrupt.
Atomic synced writes, quarantine of snapshots that fail to parse, and
save-off mode on a full disk come from
:class:`~repro.harness.blobstore.BlobStore`; this module adds only the
prefix key, the ``<committed>.ckpt`` listing and the
:class:`~repro.checkpoint.snapshot.Snapshot` framing.  The code-version
stamp is hashed into the prefix key *and* checked by
:func:`~repro.checkpoint.snapshot.restore`, so a source change orphans
old snapshots rather than resuming from a diverged world.
"""

from __future__ import annotations

import os
import pathlib
from typing import Dict, List, Optional

from ..errors import CheckpointError
from ..harness.blobstore import BlobStore, stable_hash
from ..harness.cache import SCHEMA_VERSION, code_version
from ..logutil import get_logger
from .snapshot import Snapshot, capture, is_quiescent

_log = get_logger("checkpoint")

_SUFFIX = ".ckpt"


def prefix_spec(spec: Dict) -> Dict:
    """A job spec reduced to its budget-independent prefix.

    Everything that shapes execution from cycle 0 stays (workload,
    machine/Trident config, warmup, seed, fault plan, sampling interval,
    interpreter choice); only the stopping point goes.
    """
    reduced = dict(spec)
    config = dict(reduced.get("config") or {})
    config.pop("max_instructions", None)
    reduced["config"] = config
    return reduced


class CheckpointStore(BlobStore):
    """Content-addressed checkpoint files under the cache root.

    Like the result cache, every I/O failure degrades to "no
    checkpoint": an unwritable root skips saves, an unreadable or stale
    snapshot is a miss, and the simulation runs cold.
    """

    #: Quarantined snapshots keep their prefix directory.
    quarantine_parts = 2

    # ------------------------------------------------------------------
    # Keys and paths.
    # ------------------------------------------------------------------
    def prefix_key(self, spec: Dict) -> str:
        """The content address of a job's budget-independent prefix."""
        return stable_hash(
            {
                "schema": SCHEMA_VERSION,
                "code_version": code_version(),
                "prefix": prefix_spec(spec),
            }
        )

    def dir_for(self, prefix: str) -> pathlib.Path:
        return self.root / "checkpoints" / prefix[:2] / prefix

    def path_for(self, prefix: str, committed: int) -> pathlib.Path:
        return self.dir_for(prefix) / f"{committed:016d}{_SUFFIX}"

    # ------------------------------------------------------------------
    # Lookup / store.
    # ------------------------------------------------------------------
    def committed_counts(self, prefix: str) -> List[int]:
        """Committed-instruction counts with a stored snapshot, sorted."""
        try:
            names = os.listdir(self.dir_for(prefix))
        except OSError:
            return []
        counts = []
        for name in names:
            if not name.endswith(_SUFFIX):
                continue
            try:
                counts.append(int(name[: -len(_SUFFIX)]))
            except ValueError:
                continue
        counts.sort()
        return counts

    def best(self, prefix: str, max_committed: int) -> Optional[Snapshot]:
        """The largest usable snapshot at ``committed <= max_committed``.

        Candidates are tried largest-first; one that fails to parse is
        quarantined, not fatal — determinism means any stored point at
        or before the target is a valid resume point.
        """
        return self.fetch(
            (
                self.path_for(prefix, committed)
                for committed in reversed(self.committed_counts(prefix))
                if committed <= max_committed
            ),
            Snapshot.from_bytes,
        )

    def put(self, prefix: str, snapshot: Snapshot) -> bool:
        """Durably store one snapshot; returns False when skipped.

        An existing file for the same (prefix, committed) is left alone:
        determinism makes it byte-identical to what we would write.
        """
        path = self.path_for(prefix, snapshot.committed)
        if path.exists():
            return False
        return self.write(path, snapshot.to_bytes())

    def save(self, prefix: str, sim) -> bool:
        """Capture-and-store if ``sim`` is quiescent; False otherwise.

        The convenience used as a run's checkpoint sink: skips busy
        boundaries and never lets a capture or I/O failure break the
        simulation that is being checkpointed.
        """
        if not is_quiescent(sim):
            return False
        if self.path_for(prefix, sim.core.stats.committed).exists():
            # A previous identical run already stored this exact point;
            # the due capture is satisfied without re-pickling.
            return True
        try:
            return self.put(prefix, capture(sim))
        except CheckpointError as exc:
            _log.debug("checkpoint capture skipped: %s", exc)
            return False
