"""Versioned, deterministic snapshots of a whole :class:`Simulation`.

Every run here is bit-for-bit deterministic and ``SMTCore.run`` is
re-entrant: chunked calls (``drain=False``) leave state identical to one
big call.  A snapshot therefore *is* the run's future — restoring one and
continuing to budget B2 is byte-identical to a cold run at B2.  That
equivalence only holds if two things are true:

* **The simulated graph holds no closures, so every chunk boundary is
  a capture point.**  In-flight helper jobs, queued optimization events
  and open fault windows are plain data over the simulated graph (a
  window end is a ``(cycle, seq, field, amount)`` heap entry in the
  fault injector), so a busy helper or an open window rides along
  inside the snapshot.
* **The serialized form is canonical.**  The payload is a pickle whose
  bytes depend only on *values*, never on object identity accidents:
  every ``set``/``frozenset`` is reduced through sorted element lists
  (a restored set's iteration order differs from the original's
  insertion order), and no string is shared by identity — CPython
  interns attribute names and literals, so equal strings are one shared
  object in a freshly built graph but many distinct objects in an
  unpickled one, and identity-keyed memoization would encode that
  difference into the bytes.  (The simulation itself never iterates its
  persisted sets in a timing-relevant order; the property tests hold
  capture idempotence to byte equality.)  :func:`capture` applies these
  rules on the C pickler (:class:`_SnapshotPickler`, since format 4): strings
  travel as persistent ids of their UTF-8 bytes, and sets and packed
  numeric bulk as persistent ids with identity tokens.
  :func:`canonical_dumps` is the same canonical form written by the
  pure-Python pickler, the reference the tests compare restores with.

**A snapshot carries only the state its run created.**  A registry
workload's memory image and :class:`Program` are built once per process
and shared by every run of that workload
(:func:`repro.workloads.registry.load_workload`), so :func:`capture`
refers to them instead of copying them: a memory view whose image *is*
the registry's image pickles as ``(key, image digest, own words,
unmapped reads)`` and the shared program as its ``(name, seed)`` key.
:func:`restore` resolves the key through the registry, rebuilding the
workload when the process holds another one, and refuses a snapshot
whose digest differs from the built image.  Scenario and trace
workloads, hand-built ones, and a view of an image the registry has
since dropped pickle in full.  :func:`canonical_dumps` never refers:
it is the full canonical form.

Volatile derived state is excluded by ``__getstate__`` hooks on its
owners: the fast interpreter's step handlers and generated trace
functions (``SMTCore``, ``HotTrace._fast_cache``) are rebuilt on
demand, and the watchdog's wall-clock deadline is re-armed on the next
``run`` call.

The on-disk container is a small framed format::

    RPCK | uint32 header length | header JSON | zlib-compressed pickle

The header carries the format version, the code-version stamp of
:func:`repro.harness.cache.code_version` (any source change invalidates
every prior snapshot), and the progress coordinates (committed
instructions, cycles) used for prefix lookup.  Anything that fails to
parse — truncation, garbage, stale stamps — raises
:class:`CheckpointError`, which every consumer converts to "run cold".
"""

from __future__ import annotations

import array
import copyreg
import io
import json
import pickle
import struct
import zlib
from dataclasses import dataclass
from typing import Dict, Optional

from ..errors import CheckpointError
from ..harness.cache import code_version
from ..isa.program import Program
from ..memory.mainmem import DataMemory
from ..workloads.registry import shared_workload

#: Bumped whenever the frame layout or the pickled object graph changes
#: incompatibly; part of the header, checked on load.  (6: fault window
#: ends are plain heap entries, and the simulation no longer carries a
#: capture schedule.)
FORMAT_VERSION = 6

#: Frame magic ("RePro ChecKpoint").
MAGIC = b"RPCK"

_HEADER_LEN = struct.Struct(">I")

#: zlib level 1: capture sits on the measured path of every checkpointed
#: run, and a snapshot that copies a workload image (scenario and trace
#: workloads) is dominated by data arrays that compress well at any
#: level — speed wins over the last few percent of size.
_ZLIB_LEVEL = 1


def _sorted_elements(values):
    """Elements of a set in a deterministic order.

    Persisted simulator sets hold homogeneous ints (load PCs); ``repr``
    is the total-order fallback for anything unorderable that may appear
    in test doubles.
    """
    try:
        return sorted(values)
    except TypeError:
        return sorted(values, key=repr)


#: Lists shorter than this go through the generic pickler; longer
#: homogeneous numeric lists (workload memory images, data arrays) take
#: the packed ``array`` fast path, which dominates payload size.
_PACK_MIN = 256


def _restore_int_list(data: bytes) -> list:
    return list(array.array("q", data))


def _restore_float_list(data: bytes) -> list:
    return list(array.array("d", data))


def _restore_int_dict(keys: bytes, values: bytes) -> dict:
    # zip preserves the packed (insertion) order, so the restored dict
    # iterates identically to the captured one.
    return dict(zip(array.array("q", keys), array.array("q", values)))


def _restore_int_float_dict(keys: bytes, values: bytes) -> dict:
    return dict(zip(array.array("q", keys), array.array("d", values)))


def _sorted_set(obj):
    """A set or frozenset as ``(its type, (sorted elements,))``."""
    return type(obj), (_sorted_elements(obj),)


def _packed_list(obj):
    """``(rebuild, args)`` packing a list of ``_PACK_MIN`` or more exact
    ints or exact floats through :mod:`array`; None for any other list."""
    if len(obj) < _PACK_MIN:
        return None
    kinds = set(map(type, obj))
    if kinds == {int}:
        try:
            packed = array.array("q", obj)
        except OverflowError:
            return None  # arbitrary-precision outlier: generic path
        return _restore_int_list, (packed.tobytes(),)
    if kinds == {float}:
        return _restore_float_list, (array.array("d", obj).tobytes(),)
    return None


def _packed_dict(obj):
    """``(rebuild, args)`` packing a dict of ``_PACK_MIN`` or more exact
    int keys, all of its values exact ints or all exact floats, through
    :mod:`array`; None for any other dict.

    The dominant graph component is main memory: a plain dict of int
    word address -> int/float word value, up to ~1M entries.
    """
    if len(obj) < _PACK_MIN or set(map(type, obj.keys())) != {int}:
        return None
    value_kinds = set(map(type, obj.values()))
    if value_kinds == {int}:
        rebuild, code = _restore_int_dict, "q"
    elif value_kinds == {float}:
        rebuild, code = _restore_int_float_dict, "d"
    else:
        return None
    try:
        keys = array.array("q", obj.keys()).tobytes()
        values = array.array(code, obj.values()).tobytes()
    except OverflowError:
        return None  # arbitrary-precision outlier: generic path
    return rebuild, (keys, values)


#: Exact type -> its canonical ``(rebuild, args)`` form, or None where
#: the object pickles natively: ``_SnapshotPickler`` looks the rules up
#: here, ``_CanonicalPickler``'s save hooks call the same functions.
_CANONICAL = {
    set: _sorted_set,
    frozenset: _sorted_set,
    list: _packed_list,
    dict: _packed_dict,
}


class _CanonicalPickler(pickle._Pickler):
    """Pickler producing identical bytes for equal object graphs.

    The reference canonical form, on the pure-Python pickler because it
    overrides two of its save hooks (:class:`_SnapshotPickler` applies
    the same rules on the C pickler through ``persistent_id``):

    * ``memoize`` is skipped for ``str``.  The memo is keyed on object
      identity, and equal strings do not have stable identity across a
      pickle round trip (attribute names and literals are interned in a
      live process; unpickled strings are not).  Unmemoized strings are
      re-emitted per occurrence — a few percent of payload that zlib
      reclaims — and the bytes become pure functions of value.
    * ``set``/``frozenset`` serialise as sorted element lists; their
      native opcodes (``ADDITEMS``/``FROZENSET``) write insertion order,
      which differs between an original and a restored set.

    Dict ordering is already deterministic (simulation dicts are built in
    deterministic insertion order, and unpickling preserves it).  The
    pickle memo keeps every non-string shared reference shared — a
    PrefetchRecord aliased across several record-map keys stays one
    object after restore.

    The pure-Python walk would be slow on the multi-megabyte workload
    arrays, so exact-type homogeneous int/float lists of ``_PACK_MIN``
    or more elements, and int-keyed dicts of as many int or float
    values, pack through :mod:`array` at C speed (host-endian:
    snapshots are same-machine artifacts, keyed by a local code-version
    stamp, never shipped across architectures).
    """

    dispatch = pickle._Pickler.dispatch.copy()

    def memoize(self, obj):
        if type(obj) is str:
            return
        super().memoize(obj)

    def save_set(self, obj):
        self.save_reduce(*_sorted_set(obj), obj=obj)

    dispatch[set] = save_set
    dispatch[frozenset] = save_set

    def save_list(self, obj):
        packed = _packed_list(obj)
        if packed is None:
            pickle._Pickler.save_list(self, obj)
        else:
            self.save_reduce(*packed, obj=obj)

    dispatch[list] = save_list

    def save_dict(self, obj):
        packed = _packed_dict(obj)
        if packed is None:
            pickle._Pickler.save_dict(self, obj)
        else:
            self.save_reduce(*packed, obj=obj)

    dispatch[dict] = save_dict


def canonical_dumps(obj) -> bytes:
    """Pickle ``obj`` with canonical (sorted) set serialisation."""
    buffer = io.BytesIO()
    _CanonicalPickler(buffer, protocol=4).dump(obj)
    return buffer.getvalue()


# ---------------------------------------------------------------------------
# The shared workload, by reference.
# ---------------------------------------------------------------------------
def _shared(key, digest=None):
    """The registry's built workload for ``key``, checked against
    ``digest`` when given; raises :class:`CheckpointError` if the
    workload is unknown or its image differs from the captured one."""
    try:
        built, current = shared_workload(key)
    except KeyError:
        raise CheckpointError(
            f"checkpoint refers to unknown workload {key[0]!r}"
        ) from None
    if digest is not None and digest != current:
        raise CheckpointError(
            f"checkpoint was captured against another {key[0]!r} image "
            f"(digest {digest[:12]}..., built {current[:12]}...)"
        )
    return built


def _restore_shared_memory(key, digest, words, unmapped_reads):
    memory = _shared(key, digest).memory.view()
    memory.image_key = key
    memory._words = words
    memory.unmapped_reads = unmapped_reads
    return memory


def _restore_shared_program(key):
    return _shared(key).program


def _shared_dispatch_table(key, built, digest):
    """A pickler dispatch table that reduces a memory view of ``built``'s
    image to ``(key, digest, own words, unmapped reads)`` and ``built``'s
    :class:`Program` to ``key``; any other memory or program pickles in
    full.  The reducers close over ``built``, not the pickler, so a
    finished pickler (and its memo) is freed without waiting for the
    cycle collector."""
    image = built.memory.words()
    program = built.program

    def reduce_memory(memory):
        if memory._image is image:
            return _restore_shared_memory, (
                key, digest, memory._words, memory.unmapped_reads,
            )
        return memory.__reduce_ex__(4)

    def reduce_program(obj):
        if obj is program:
            return _restore_shared_program, (key,)
        return obj.__reduce_ex__(4)

    table = copyreg.dispatch_table.copy()
    table[DataMemory] = reduce_memory
    table[Program] = reduce_program
    return table


class _SnapshotPickler(pickle.Pickler):
    """The canonical rules on the C pickler, minus the shared workload.

    The C pickler has no per-type save hooks, and it memoizes strings by
    identity, but it asks ``persistent_id`` about every object before
    anything else, so the rules ride there:

    * A ``str`` becomes a persistent id of its UTF-8 bytes, a fresh
      ``bytes`` object per occurrence (never shared through the memo by
      identity), so equal strings give equal bytes whether or not they
      are one object.  Restore decodes each one.
    * A set, frozenset, or packable list or dict (:data:`_CANONICAL`)
      becomes ``(token, rebuild, *args)`` the first time the walk meets
      it and ``(token,)`` every time after, so an object shared in the
      graph is one object after restore.  Tokens count such objects in
      first-visit order, a pure function of the graph.  ``_tokens``
      holds each one until the dump ends: ``__getstate__`` results are
      temporaries, and a freed one's ``id`` could otherwise come back
      as another object's.

    ``shared`` is the registry's ``(key, built workload, image digest)``
    for the workload being captured; :func:`_shared_dispatch_table`
    reduces its image views and program by key.
    """

    def __init__(self, file, shared=None):
        super().__init__(file, protocol=4)
        self._tokens = {}
        if shared is not None:
            self.dispatch_table = _shared_dispatch_table(*shared)

    def persistent_id(self, obj):
        kind = type(obj)
        if kind is str:
            return obj.encode("utf-8", "surrogatepass")
        canonical = _CANONICAL.get(kind)
        if canonical is None:
            return None
        seen = self._tokens.get(id(obj))
        if seen is not None:
            return (seen[0],)
        form = canonical(obj)
        if form is None:
            return None
        token = len(self._tokens)
        self._tokens[id(obj)] = (token, obj)
        return (token, form[0], *form[1])


class _SnapshotUnpickler(pickle.Unpickler):
    """Loads :class:`_SnapshotPickler` payloads: rebuilds each persistent
    id's string or object, and resolves a repeated token to the object
    its first occurrence rebuilt."""

    def __init__(self, file):
        super().__init__(file)
        self._objects = {}

    def persistent_load(self, pid):
        if type(pid) is bytes:
            return pid.decode("utf-8", "surrogatepass")
        if len(pid) == 1:
            return self._objects[pid[0]]
        token, rebuild, *args = pid
        obj = self._objects[token] = rebuild(*args)
        return obj


def _snapshot_dumps(sim) -> bytes:
    """``sim`` pickled canonically, referring to its workload's shared
    image and program while the registry still holds them."""
    key = sim.workload.memory.image_key
    shared = None
    if key is not None:
        found = shared_workload(key, build=False)
        if found is not None:
            shared = (key, *found)
    buffer = io.BytesIO()
    _SnapshotPickler(buffer, shared).dump(sim)
    return buffer.getvalue()


# ---------------------------------------------------------------------------
# The snapshot container.
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Snapshot:
    """One captured simulator state: parsed header + compressed payload."""

    header: Dict
    payload: bytes

    @property
    def committed(self) -> int:
        return self.header["committed"]

    @property
    def cycles(self) -> float:
        return self.header["cycles"]

    def to_bytes(self) -> bytes:
        header = json.dumps(
            self.header, sort_keys=True, separators=(",", ":")
        ).encode()
        return b"".join(
            (MAGIC, _HEADER_LEN.pack(len(header)), header, self.payload)
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "Snapshot":
        """Parse a framed snapshot; raises :class:`CheckpointError` on
        any truncation, corruption, or version/stamp mismatch."""
        prefix = len(MAGIC) + _HEADER_LEN.size
        if len(data) < prefix or not data.startswith(MAGIC):
            raise CheckpointError("not a checkpoint: bad magic")
        (header_len,) = _HEADER_LEN.unpack(
            data[len(MAGIC):prefix]
        )
        if len(data) < prefix + header_len:
            raise CheckpointError("truncated checkpoint header")
        try:
            header = json.loads(data[prefix:prefix + header_len])
        except ValueError as exc:
            raise CheckpointError(f"unparsable checkpoint header: {exc}")
        if not isinstance(header, dict):
            raise CheckpointError("checkpoint header is not an object")
        if header.get("format") != FORMAT_VERSION:
            raise CheckpointError(
                f"unsupported checkpoint format {header.get('format')!r} "
                f"(this build reads {FORMAT_VERSION})"
            )
        payload = data[prefix + header_len:]
        declared = header.get("payload_bytes")
        if declared is not None and declared != len(payload):
            raise CheckpointError(
                f"truncated checkpoint payload: {len(payload)} bytes, "
                f"header declares {declared}"
            )
        return cls(header=header, payload=payload)


def capture(sim) -> Snapshot:
    """Snapshot the complete simulator state at a chunk boundary.

    Any boundary will do, inside a fault window or with the helper
    busy.  The snapshot is taken *before* the end-of-run drain and
    ``injector.finish`` — i.e. exactly the state a longer cold run would
    have when passing this committed count — so a checkpoint captured at
    a run's own budget can seed any larger budget.
    """
    committed, cycles = sim.core.snapshot()
    payload = zlib.compress(_snapshot_dumps(sim), _ZLIB_LEVEL)
    header = {
        "format": FORMAT_VERSION,
        "code_version": code_version(),
        "workload": sim.workload.name,
        "policy": sim.config.policy.value,
        "warmup_instructions": sim.config.warmup_instructions,
        "committed": committed,
        "cycles": cycles,
        "payload_bytes": len(payload),
    }
    return Snapshot(header=header, payload=payload)


def restore(snapshot: Snapshot):
    """Rebuild a runnable :class:`Simulation` from ``snapshot``.

    Validates the code-version stamp (a snapshot from different sources
    is not just stale, it would *diverge*), unpickles the object graph
    (resolving a shared workload through the registry, which may build
    it, and checking its image digest).  A core that was mid-trace binds
    its generated run function on its next run call.
    """
    stamp = snapshot.header.get("code_version")
    if stamp != code_version():
        raise CheckpointError(
            "checkpoint was captured by different simulator sources "
            f"(stamp {str(stamp)[:12]}..., current "
            f"{code_version()[:12]}...)"
        )
    try:
        sim = _SnapshotUnpickler(
            io.BytesIO(zlib.decompress(snapshot.payload))
        ).load()
    except CheckpointError:
        raise
    except Exception as exc:
        raise CheckpointError(f"corrupt checkpoint payload: {exc}")
    core = getattr(sim, "core", None)
    if core is None:
        raise CheckpointError("checkpoint payload is not a Simulation")
    return sim
