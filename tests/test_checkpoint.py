"""Unit and property tests for the checkpoint subsystem.

The load-bearing property is **capture idempotence**: capturing a run,
restoring it, and capturing again must produce identical bytes — if it
did not, either restore loses state or the serialisation is not
canonical, and either way resumed runs could diverge.  The sweep covers
every workload (under the richest policy) and every policy (on two
workloads of opposite memory character), mirroring the fastpath
equivalence grid.

Corruption must degrade, never crash: a truncated or tampered snapshot
raises :class:`CheckpointError` from the parser, and the engine treats
any unusable checkpoint as a miss and runs cold.
"""

from __future__ import annotations

import json
import zlib

import pytest

from repro.checkpoint import (
    FORMAT_VERSION,
    CheckpointStore,
    Snapshot,
    capture,
    restore,
)
from repro.config import PrefetchPolicy, SimulationConfig
from repro.errors import CheckpointError
from repro.harness.blobstore import prune, scan_usage
from repro.harness.engine import ExperimentEngine, make_job
from repro.harness.runner import Simulation
from repro.workloads.registry import BENCHMARK_NAMES

BUDGET = 1_500
WARMUP = 400

#: Two workloads of opposite memory character (pointer chase vs stream)
#: carry the full-policy axis of the sweep.
POLICY_SWEEP_WORKLOADS = ["mcf", "swim"]


def _run_sim(name, policy, **overrides):
    overrides.setdefault("max_instructions", BUDGET)
    overrides.setdefault("warmup_instructions", WARMUP)
    sim = Simulation(name, SimulationConfig(policy=policy, **overrides))
    sim.run()
    return sim


def _assert_idempotent(name, policy):
    sim = _run_sim(name, policy)
    first = capture(sim)
    second = capture(restore(first))
    assert first.header == second.header
    assert first.payload == second.payload
    assert first.to_bytes() == second.to_bytes()


class TestCaptureIdempotence:
    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_every_workload(self, name):
        _assert_idempotent(name, PrefetchPolicy.SELF_REPAIRING)

    @pytest.mark.parametrize("policy", list(PrefetchPolicy))
    @pytest.mark.parametrize("name", POLICY_SWEEP_WORKLOADS)
    def test_every_policy(self, name, policy):
        _assert_idempotent(name, policy)

    def test_frame_roundtrip(self):
        sim = _run_sim("art", PrefetchPolicy.SELF_REPAIRING)
        snapshot = capture(sim)
        parsed = Snapshot.from_bytes(snapshot.to_bytes())
        assert parsed.header == snapshot.header
        assert parsed.payload == snapshot.payload
        assert parsed.committed == sim.core.stats.committed


class TestCorruption:
    @pytest.fixture(scope="class")
    def frame(self):
        sim = _run_sim("art", PrefetchPolicy.SELF_REPAIRING)
        return capture(sim)

    def test_truncation_raises_everywhere(self, frame):
        data = frame.to_bytes()
        for cut in (0, 2, 4, 7, 40, len(data) // 2, len(data) - 1):
            with pytest.raises(CheckpointError):
                Snapshot.from_bytes(data[:cut])

    def test_bad_magic_raises(self):
        with pytest.raises(CheckpointError):
            Snapshot.from_bytes(b"NOPE" + b"\x00" * 64)

    def test_unknown_format_raises(self, frame):
        header = dict(frame.header, format=FORMAT_VERSION + 1)
        data = Snapshot(header=header, payload=frame.payload).to_bytes()
        with pytest.raises(CheckpointError):
            Snapshot.from_bytes(data)

    def test_stale_code_version_refuses_restore(self, frame):
        tampered = Snapshot(
            header=dict(frame.header, code_version="0" * 64),
            payload=frame.payload,
        )
        with pytest.raises(CheckpointError):
            restore(tampered)

    def test_garbage_payload_refuses_restore(self, frame):
        garbage = zlib.compress(b"not a pickle")
        tampered = Snapshot(
            header=dict(frame.header, payload_bytes=len(garbage)),
            payload=garbage,
        )
        with pytest.raises(CheckpointError):
            restore(tampered)

    def test_engine_runs_cold_off_truncated_checkpoints(self, tmp_path):
        """An unusable stored snapshot is a miss, not a crash."""
        job = make_job(
            "art",
            policy=PrefetchPolicy.SELF_REPAIRING,
            max_instructions=1_000,
            warmup_instructions=WARMUP,
        )
        seeded = ExperimentEngine(
            cache=None, checkpoints=CheckpointStore(tmp_path)
        )
        seeded.run([job], isolate=False)
        ckpts = list((tmp_path / "checkpoints").rglob("*.ckpt"))
        assert ckpts
        for path in ckpts:
            path.write_bytes(path.read_bytes()[:50])

        longer = make_job(
            "art",
            policy=PrefetchPolicy.SELF_REPAIRING,
            max_instructions=2_000,
            warmup_instructions=WARMUP,
        )
        engine = ExperimentEngine(
            cache=None, checkpoints=CheckpointStore(tmp_path)
        )
        outcome = engine.run([longer], isolate=False)[0]
        assert outcome.resumed_from is None
        assert engine.stats.jobs_resumed == 0

        cold = Simulation(
            "art",
            SimulationConfig(
                policy=PrefetchPolicy.SELF_REPAIRING,
                max_instructions=2_000,
                warmup_instructions=WARMUP,
            ),
        ).run()
        assert json.dumps(outcome.result.to_dict()) == json.dumps(
            cold.to_dict()
        )


def _fake_snapshot(committed: int) -> Snapshot:
    payload = zlib.compress(committed.to_bytes(8, "big") * 16)
    return Snapshot(
        header={
            "format": FORMAT_VERSION,
            "committed": committed,
            "cycles": committed * 2.0,
            "payload_bytes": len(payload),
        },
        payload=payload,
    )


class TestStore:
    def test_put_best_roundtrip(self, tmp_path):
        store = CheckpointStore(tmp_path)
        for committed in (300, 100, 200):
            assert store.put("ab" * 32, _fake_snapshot(committed))
        assert store.committed_counts("ab" * 32) == [100, 200, 300]
        assert store.best("ab" * 32, 250).committed == 200
        assert store.best("ab" * 32, 99) is None
        assert store.best("ab" * 32, 10_000).committed == 300

    def test_put_skips_existing(self, tmp_path):
        store = CheckpointStore(tmp_path)
        assert store.put("cd" * 32, _fake_snapshot(100))
        assert not store.put("cd" * 32, _fake_snapshot(100))
        assert store.stores == 1

    def test_best_skips_corrupt_candidate(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.put("ef" * 32, _fake_snapshot(100))
        store.put("ef" * 32, _fake_snapshot(200))
        store.path_for("ef" * 32, 200).write_bytes(b"garbage")
        assert store.best("ef" * 32, 10_000).committed == 100

    def test_prefix_key_ignores_budget_and_cadence(self, tmp_path):
        store = CheckpointStore(tmp_path)

        def key(**overrides):
            return store.prefix_key(
                make_job("art", warmup_instructions=WARMUP, **overrides).spec()
            )

        base = key(max_instructions=1_000)
        assert key(max_instructions=50_000) == base
        assert key(max_instructions=1_000, checkpoint_every=500) == base
        assert key(max_instructions=1_000, seed=7) != base
        assert key(max_instructions=1_000, fast=False) != base

    def test_prune_oldest_first_and_scan(self, tmp_path):
        import os

        store = CheckpointStore(tmp_path)
        for index, committed in enumerate((100, 200, 300)):
            store.put("12" * 32, _fake_snapshot(committed))
            path = store.path_for("12" * 32, committed)
            os.utime(path, (1_000 + index, 1_000 + index))
        usage = scan_usage(tmp_path)
        assert usage["checkpoints"]["entries"] == 3
        total = usage["checkpoints"]["bytes"]
        per_file = total // 3
        deleted, freed = prune(tmp_path, total - per_file)
        assert deleted == 1
        assert freed > 0
        # Oldest mtime went first: the first-written snapshot is gone.
        assert store.committed_counts("12" * 32) == [200, 300]


class TestCadence:
    def test_checkpoint_every_marks_and_end_capture(self):
        sim = Simulation(
            "art",
            SimulationConfig(
                policy=PrefetchPolicy.SELF_REPAIRING,
                max_instructions=2_000,
                warmup_instructions=400,
                checkpoint_every=600,
            ),
        )
        committed_at = []
        def sink(s):
            committed_at.append(s.core.stats.committed)
            return True
        sim.checkpoint_sink = sink
        sim.run()
        assert committed_at == [600, 1_200, 1_800, 2_400]

    def test_snapshot_normalises_capture_schedule(self):
        """Snapshots taken under different cadences are byte-identical:
        the sink and schedule are per-run-segment, not state."""
        def bytes_with(every):
            sim = Simulation(
                "art",
                SimulationConfig(
                    policy=PrefetchPolicy.SELF_REPAIRING,
                    max_instructions=1_200,
                    warmup_instructions=400,
                    checkpoint_every=every,
                ),
            )
            captured = []
            sim.checkpoint_sink = lambda s: bool(
                captured.append(capture(s))
            ) or True
            sim.run()
            return captured[-1].to_bytes()

        assert bytes_with(None) == bytes_with(700)
