"""The one durable file store under the cache root.

Every durable artifact the harness writes follows the same three rules
(DESIGN.md, "Storage hardening"), and this module is their only copy:

* **Atomic, synced publish.**  :func:`publish` writes to a unique
  same-directory temp file, flushes, fsyncs, then ``os.replace``\\ s it
  over the target, so a reader or a power cut never sees half a file and
  concurrent writers (worker processes, threaded benches) never share a
  temp name.
* **Verified reads.**  :meth:`BlobStore.fetch` hands the raw bytes to a
  decoder; a file that fails to decode counts as a miss, never an error.
* **Quarantine on failure.**  A file that fails its verified read is
  moved aside to ``<root>/quarantine/`` for autopsy (or unlinked when it
  cannot be moved).  A full disk (ENOSPC/EDQUOT) disables the store for
  the rest of the process instead of failing every later write.

:class:`~repro.harness.cache.ResultCache` and
:class:`~repro.checkpoint.store.CheckpointStore` are thin subclasses
that add only their keys, path layout and payload framing.
:func:`scan_usage` and :func:`prune` (the ``repro cache`` subcommand)
walk every file under a root, quarantine and orphaned temps included.
"""

from __future__ import annotations

import errno
import hashlib
import itertools
import json
import os
import pathlib
import threading
from typing import Callable, Dict, Iterable, List, Optional, Tuple, TypeVar

from ..logutil import get_logger

_log = get_logger("blobstore")

T = TypeVar("T")

#: errno values that mean "storage is out of room", not "this write is
#: bad": the store disables itself instead of failing every later write.
DISK_FULL_ERRNOS = frozenset(
    code
    for code in (
        getattr(errno, "ENOSPC", None),
        getattr(errno, "EDQUOT", None),
    )
    if code is not None
)

#: Environment override for the cache root directory.
ENV_CACHE_DIR = "REPRO_CACHE_DIR"

#: Marks an in-flight (or, after a killed writer, orphaned) temp file.
TMP_MARKER = ".tmp."

#: Monotonic suffix keeping same-thread temp files distinct too.
_tmp_counter = itertools.count()


def default_cache_dir() -> pathlib.Path:
    """``$REPRO_CACHE_DIR`` or ``~/.cache/repro``."""
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return pathlib.Path(env)
    return pathlib.Path.home() / ".cache" / "repro"


def stable_hash(spec: Dict) -> str:
    """SHA-256 of the canonical (sorted, compact) JSON of ``spec``."""
    canonical = json.dumps(
        spec, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


def payload_checksum(payload: Dict) -> str:
    """Truncated stable hash guarding one record or entry payload."""
    return stable_hash(payload)[:16]


def publish(path: pathlib.Path, data: bytes) -> None:
    """Atomically and durably replace ``path`` with ``data``.

    Raises the underlying :class:`OSError` after removing its temp file;
    the previous contents of ``path``, if any, are untouched.
    """
    # Unique per process, thread, and call.
    tmp = path.with_name(
        f".{path.name}{TMP_MARKER}{os.getpid()}."
        f"{threading.get_ident()}.{next(_tmp_counter)}"
    )
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except OSError:
        try:
            tmp.unlink()
        except OSError:
            pass
        raise


class BlobStore:
    """Durable files under one root with verified reads and quarantine.

    All I/O failure modes degrade to "store off" behaviour: an unwritable
    root skips writes, an unreadable or corrupt file is a miss.  The
    simulation always wins over the store.
    """

    #: Trailing path components a quarantined file keeps under
    #: ``<root>/quarantine/`` (its name, plus parent directories).
    quarantine_parts = 1

    def __init__(self, root: Optional[os.PathLike] = None) -> None:
        self.root = pathlib.Path(root) if root else default_cache_dir()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        #: Files moved aside after failing their verified read.
        self.quarantined = 0
        #: Set once the disk fills up; all later writes become no-ops.
        self.disabled = False

    def quarantine_dir(self) -> pathlib.Path:
        return self.root / "quarantine"

    def fetch(
        self, paths: Iterable[pathlib.Path], decode: Callable[[bytes], T]
    ) -> Optional[T]:
        """The first of ``paths`` that reads and decodes, or None.

        An absent or unreadable file is skipped; one whose ``decode``
        raises is quarantined and skipped.  One call counts one hit or
        one miss however many candidates it tried.
        """
        for path in paths:
            try:
                raw = path.read_bytes()
            except OSError:
                continue
            try:
                value = decode(raw)
            except Exception as exc:
                self.quarantine(path, exc)
                continue
            self.hits += 1
            return value
        self.misses += 1
        return None

    def write(self, path: pathlib.Path, data: bytes) -> bool:
        """Durably publish ``data`` at ``path``; False when skipped or
        failed."""
        if self.disabled:
            return False
        try:
            publish(path, data)
        except OSError as exc:
            if exc.errno in DISK_FULL_ERRNOS:
                _log.warning(
                    "%s disk full (%s); disabling stores for this run",
                    type(self).__name__, exc,
                )
                self.disabled = True
            else:
                _log.debug("store failed for %s: %s", path, exc)
            return False
        self.stores += 1
        return True

    def quarantine(self, path: pathlib.Path, reason: object) -> None:
        """Move an unusable file aside for autopsy; never raises."""
        _log.warning("%s unusable (%r); quarantining", path, reason)
        dest = self.quarantine_dir().joinpath(
            *path.parts[-self.quarantine_parts:]
        )
        try:
            dest.parent.mkdir(parents=True, exist_ok=True)
            os.replace(path, dest)
        except OSError:
            # Best-effort: an immovable corrupt file still reads as a
            # miss, it just stays in place.
            try:
                path.unlink()
            except OSError:
                return
        self.quarantined += 1


# ---------------------------------------------------------------------------
# Maintenance (the `repro cache` subcommand).
# ---------------------------------------------------------------------------
def _files(root: pathlib.Path) -> List[Tuple[float, int, pathlib.Path]]:
    """``(mtime, size, path)`` of every regular file under ``root``."""
    found = []
    for path in root.rglob("*"):
        try:
            if not path.is_file():
                continue
            stat = path.stat()
        except OSError:
            continue
        found.append((stat.st_mtime, stat.st_size, path))
    return found


def _section(root: pathlib.Path, path: pathlib.Path) -> str:
    """The usage row a file counts under: ``temp`` for orphaned temps,
    else its top-level directory (``results``, ``checkpoints``,
    ``quarantine``), else ``other``."""
    if TMP_MARKER in path.name:
        return "temp"
    parts = path.relative_to(root).parts
    return parts[0] if len(parts) > 1 else "other"


def scan_usage(root: pathlib.Path) -> Dict[str, Dict[str, int]]:
    """File counts and byte totals for each section of a cache root."""
    usage = {
        section: {"entries": 0, "bytes": 0}
        for section in ("results", "checkpoints", "quarantine", "temp")
    }
    for _mtime, size, path in _files(root):
        counts = usage.setdefault(
            _section(root, path), {"entries": 0, "bytes": 0}
        )
        counts["entries"] += 1
        counts["bytes"] += size
    return usage


def prune(root: pathlib.Path, max_bytes: int) -> Tuple[int, int]:
    """Delete the oldest files under ``root`` until it fits ``max_bytes``.

    Every file counts — result entries, checkpoints, quarantined files
    and orphaned temps alike — oldest modification time first.  Returns
    ``(files_deleted, bytes_freed)``.
    """
    candidates = sorted(_files(root))
    total = sum(size for _mtime, size, _path in candidates)
    deleted = 0
    freed = 0
    for _mtime, size, path in candidates:
        if total - freed <= max_bytes:
            break
        try:
            path.unlink()
        except OSError:
            continue
        deleted += 1
        freed += size
    return deleted, freed
