"""Snapshots restore to the object graph they captured.

``capture`` pickles through ``_SnapshotPickler`` (the C pickler, with the
canonical rules applied by ``persistent_id``) and ``restore`` loads
through ``_SnapshotUnpickler``.  ``canonical_dumps``, the pure-Python
reference form that ``tests/test_workload_images.py`` pins byte for
byte, is the referee: a restored simulator must give the canonical bytes
of the one captured, whether it ran a registry workload (image and
program by reference), a scenario (memory in full), stopped mid-trace
or with the helper thread busy.  The property half drives the pickler
pair over random graphs, which must restore to equal canonical bytes
with every shared container still shared, and captures runs inside
drawn fault windows, which must recapture byte for byte and resume to
the cold result.

The example budget scales with ``REPRO_FUZZ_EXAMPLES`` like the scenario
fuzz (CI runs 200; the local default keeps the suite fast).
"""

from __future__ import annotations

import io
import os

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.checkpoint import Snapshot, capture, restore
from repro.checkpoint.snapshot import (
    _PACK_MIN,
    _SnapshotPickler,
    _SnapshotUnpickler,
    canonical_dumps,
)
from repro.errors import CheckpointError
from repro.faults.plan import FaultEvent, FaultPlan
from repro.harness.engine import make_job
from repro.harness.runner import Simulation
from repro.scenarios import CATALOG, materialize_workload

MAX_EXAMPLES = int(os.environ.get("REPRO_FUZZ_EXAMPLES", "25"))

BUDGET = 1_500
WARMUP = 400


def _dumps(obj) -> bytes:
    buffer = io.BytesIO()
    _SnapshotPickler(buffer).dump(obj)
    return buffer.getvalue()


def _loads(data: bytes):
    return _SnapshotUnpickler(io.BytesIO(data)).load()


def _simulation(workload, policy, warmup=WARMUP):
    job = make_job(workload, policy=policy, max_instructions=BUDGET,
                   warmup_instructions=warmup)
    if job.scenario is not None:
        workload = materialize_workload(job.scenario, None, job.config.seed)
    return Simulation(workload, job.config)


def _assert_round_trip(sim):
    snapshot = capture(sim)
    restored = restore(snapshot)
    assert canonical_dumps(restored) == canonical_dumps(sim)
    assert capture(restored).to_bytes() == snapshot.to_bytes()


def _step_until(sim, predicate, step=37, limit=20_000):
    """Run ``sim`` in short undrained strides until ``predicate(sim)``."""
    core = sim.core
    while not predicate(sim):
        assert core.stats.committed < limit and not core.ctx.halted
        core.run(core.stats.committed + step, drain=False)


class TestSimulatorRoundTrip:
    @pytest.mark.parametrize(
        "policy", ["hw_only", "self_repairing", "ghb_delta", "triangel"]
    )
    @pytest.mark.parametrize("workload", ["mcf", "swim"])
    def test_registry_workloads(self, workload, policy):
        sim = _simulation(workload, policy)
        sim.run()
        _assert_round_trip(sim)

    def test_scenario_memory_pickles_in_full(self):
        sim = _simulation(CATALOG["hash-churn"], "self_repairing")
        sim.run()
        assert sim.workload.memory.image_key is None
        assert len(sim.workload.memory.words()) >= _PACK_MIN
        _assert_round_trip(sim)

    def test_mid_trace(self):
        """A restored mid-trace core binds its trace function on its
        next run call, and finishes its budget as a cold run does."""
        sim = _simulation("mcf", "self_repairing", warmup=0)
        _step_until(sim, lambda s: s.core._trace is not None)
        _assert_round_trip(sim)
        restored = restore(capture(sim))
        assert restored.core._trace is not None
        cold = _simulation("mcf", "self_repairing", warmup=0).run()
        assert restored.resume().to_dict() == cold.to_dict()

    def test_helper_busy(self):
        sim = _simulation("mcf", "self_repairing")
        _step_until(sim, lambda s: not s.runtime.helper.idle)
        _assert_round_trip(sim)
        assert not restore(capture(sim)).runtime.helper.idle


# ---------------------------------------------------------------------------
# Captures inside fault windows.
# ---------------------------------------------------------------------------
#: The resumed budget, and the cycles an mcf run of it takes (~9,500):
#: drawn windows close inside the run or stay open past its end.
B2 = 3_000
MAX_WINDOW = 12_000


@st.composite
def _window_plans(draw):
    """Windows of ``dram_latency`` (with a duration) and
    ``bus_contention`` at drawn instruction counts, and a capture point
    B1 before B2."""
    events = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("dram_latency", "bus_contention")))
        magnitude = (
            draw(st.integers(1, 300)) if kind == "dram_latency"
            else draw(st.floats(1.1, 4.0))
        )
        events.append(FaultEvent(
            kind=kind,
            at_instruction=draw(st.integers(0, WARMUP + B2)),
            duration_cycles=draw(st.integers(1, MAX_WINDOW)),
            magnitude=magnitude,
        ))
    plan = FaultPlan(events=tuple(events), seed=draw(st.integers(1, 99)))
    return plan, draw(st.integers(1, B2 - 1))


#: Both windows open across B1: bus contention from instruction 800 and
#: a DRAM spike from 1,000, each far longer than the run.
_OPEN_ACROSS_B1 = (
    FaultPlan(events=(
        FaultEvent(kind="bus_contention", at_instruction=800,
                   duration_cycles=400_000, magnitude=3.0),
        FaultEvent(kind="dram_latency", at_instruction=1_000,
                   duration_cycles=300_000, magnitude=200),
    ), seed=1),
    1_500,
)


@settings(max_examples=MAX_EXAMPLES, deadline=None, derandomize=True)
@given(case=_window_plans())
@example(case=_OPEN_ACROSS_B1)
def test_capture_inside_fault_windows(case):
    """A snapshot taken with windows open round-trips byte for byte, and
    resuming it to B2 equals a cold B2 run under the same plan."""
    plan, b1 = case

    def simulation(budget):
        job = make_job("mcf", policy="self_repairing",
                       max_instructions=budget, warmup_instructions=WARMUP)
        return Simulation(job.workload, job.config, fault_plan=plan)

    sim = simulation(b1)
    captured = []
    sim.checkpoint_sink = lambda s: captured.append(capture(s))
    sim.run()
    snapshot = captured[-1]
    assert capture(restore(snapshot)).to_bytes() == snapshot.to_bytes()
    cold = simulation(B2).run()
    assert restore(snapshot).resume(B2).to_dict() == cold.to_dict()


class TestFormat:
    def test_previous_format_runs_cold(self):
        sim = _simulation("swim", "hw_only")
        sim.run()
        snapshot = capture(sim)
        stale = Snapshot(header=dict(snapshot.header, format=3),
                         payload=snapshot.payload)
        with pytest.raises(CheckpointError, match="format 3"):
            Snapshot.from_bytes(stale.to_bytes())

    def test_shared_containers_stay_shared(self):
        members = {3, 1, 2}
        frozen = frozenset({"b", "a"})
        column = list(range(_PACK_MIN))
        table = {i: i * 0.5 for i in range(_PACK_MIN)}
        graph = [members, {"again": members, "frozen": frozen},
                 (members, frozen), column, [column, table], table]
        restored = _loads(_dumps(graph))
        assert restored[0] is restored[1]["again"] is restored[2][0]
        assert restored[1]["frozen"] is restored[2][1]
        assert restored[3] is restored[4][0]
        assert restored[4][1] is restored[5]
        assert restored[0] == members and restored[4][1] == table
        assert canonical_dumps(restored) == canonical_dumps(graph)

    def test_string_identity_does_not_reach_the_bytes(self):
        one = "".join(["dlt", "_window"])
        other = "".join(["dlt", "_window"])
        assert one == other and one is not other
        assert _dumps([one, other, {one: other}]) == _dumps(
            [one, one, {one: one}]
        )

    def test_temporaries_are_not_mistaken_for_each_other(self):
        """``__getstate__`` returns a fresh set per object, which nothing
        but the pickler's token table holds: were it freed after its
        object's dump, the next one could reuse its id."""
        holders = [_FreshSetHolder(i) for i in range(64)]
        restored = _loads(_dumps(holders))
        assert [h.members for h in restored] == [
            {i, i + 1} for i in range(64)
        ]


class _FreshSetHolder:
    def __init__(self, i):
        self.i = i

    def __getstate__(self):
        return {self.i, self.i + 1}

    def __setstate__(self, state):
        self.members = state


# ---------------------------------------------------------------------------
# Random graphs.
# ---------------------------------------------------------------------------
_ATOMS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=6),
    st.binary(max_size=6),
)
#: Set elements that sort to one order whatever order they arrive in.
_ELEMENTS = st.one_of(st.integers(), st.text(max_size=4))
_PACKABLE = st.one_of(
    st.lists(st.integers(-(1 << 70), 1 << 70), min_size=_PACK_MIN,
             max_size=_PACK_MIN + 3),
    st.lists(st.floats(), min_size=_PACK_MIN, max_size=_PACK_MIN + 3),
    st.dictionaries(st.integers(-(1 << 63), (1 << 63) - 1),
                    st.integers(-(1 << 63), (1 << 63) - 1),
                    min_size=_PACK_MIN, max_size=_PACK_MIN + 3),
)
_VALUES = st.recursive(
    st.one_of(_ATOMS, st.sets(_ELEMENTS), st.frozensets(_ELEMENTS)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.tuples(inner, inner),
        st.dictionaries(_ELEMENTS, inner, max_size=4),
    ),
    max_leaves=12,
)


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(value=_VALUES, bulk=_PACKABLE)
def test_random_graphs_round_trip(value, bulk):
    graph = [value, bulk, value, bulk]
    restored = _loads(_dumps(graph))
    assert canonical_dumps(restored) == canonical_dumps(graph)
    assert restored[1] is restored[3]
    if isinstance(value, (list, dict, set)):
        assert restored[0] is restored[2]
