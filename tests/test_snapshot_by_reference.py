"""Snapshots refer to the shared workload image instead of copying it.

A registry workload's memory image and program are built once per
process and shared by every run (``tests/test_shared_image.py``), so a
snapshot carries only the state its run created: the view's own words
plus a ``(name, seed)`` key and an image digest.  These tests pin what
that must not change: resume-vs-cold equality, capture idempotence, the
run-cold fallback when the digest does not match, and full snapshots
for workloads the registry does not share.  They also pin the
in-process engine running each same-prefix chain back to back, which
keeps the registry holding the image a chain resumes against.
"""

from __future__ import annotations

import json
import zlib

import pytest

from repro.checkpoint import CheckpointStore, Snapshot, capture, restore
from repro.checkpoint import snapshot as snapshot_module
from repro.config import PrefetchPolicy, SimulationConfig
from repro.errors import CheckpointError
from repro.harness.engine import ExperimentEngine, make_job
from repro.harness.runner import Simulation
from repro.scenarios import CATALOG
from repro.workloads import registry
from repro.workloads.registry import (
    image_digest,
    load_workload,
    shared_workload,
)

B1 = 1_500
B2 = 3_000
WARMUP = 500
POLICY = PrefetchPolicy.SELF_REPAIRING


def _config(budget):
    return SimulationConfig(
        policy=POLICY, max_instructions=budget, warmup_instructions=WARMUP
    )


def _end_snapshot(workload, budget=B1):
    """Run to ``budget`` and return the snapshot the end-of-run sink got
    (taken before the drain, so any larger budget can resume from it)."""
    sim = Simulation(workload, _config(budget))
    captured = []
    sim.checkpoint_sink = lambda s: bool(captured.append(capture(s))) or True
    sim.run()
    return captured[-1]


def _cold(workload, budget=B2):
    return json.dumps(Simulation(workload, _config(budget)).run().to_dict())


def _resumed(snapshot, budget=B2):
    return json.dumps(restore(snapshot).resume(budget).to_dict())


def _pickle(snapshot) -> bytes:
    return zlib.decompress(snapshot.payload)


class TestRegistryWorkloads:
    def test_mcf_snapshot_is_small_and_restores_onto_the_image(self):
        snapshot = _end_snapshot("mcf")
        # mcf's image is 960k words (about 2 MB compressed in full).
        assert len(snapshot.payload) <= 64 * 1024
        built, _digest = shared_workload(("mcf", 1), build=False)
        sim = restore(snapshot)
        assert sim.workload.memory._image is built.memory.words()
        assert sim.core.memory is sim.workload.memory
        assert sim.workload.program is built.program
        assert sim.runtime.program is built.program

    @pytest.mark.parametrize("name", ["mcf", "swim"])
    def test_capture_restore_capture_is_byte_identical(self, name):
        first = _end_snapshot(name)
        second = capture(restore(first))
        assert b"_restore_shared_memory" in _pickle(first)
        assert second.to_bytes() == first.to_bytes()

    def test_restored_view_keeps_its_own_stores_only(self):
        sim = Simulation("mcf", _config(B1))
        sim.run()
        sim.workload.memory.write(0x4000_0000, 7)
        restored = restore(capture(sim)).workload.memory
        assert restored.read_quiet(0x4000_0000) == 7
        assert not load_workload("mcf").memory.is_mapped(0x4000_0000)

    def test_restore_rebuilds_a_workload_the_memo_dropped(self, monkeypatch):
        snapshot = _end_snapshot("mcf")
        load_workload("art")
        builds = []
        builder = registry._BUILDERS["mcf"]
        monkeypatch.setitem(
            registry._BUILDERS, "mcf",
            lambda seed: builds.append(seed) or builder(seed),
        )
        resumed = _resumed(snapshot)
        assert builds == [1]
        assert registry._last[0] == ("mcf", 1)
        assert resumed == _cold("mcf")
        assert builds == [1]


def _with_digest(snapshot, digest: str) -> Snapshot:
    """``snapshot`` claiming a different image digest."""
    actual = shared_workload(
        (snapshot.header["workload"], 1)
    )[1].encode()
    raw = _pickle(snapshot)
    assert raw.count(actual) == 1
    payload = zlib.compress(raw.replace(actual, digest.encode()))
    return Snapshot(
        header=dict(snapshot.header, payload_bytes=len(payload)),
        payload=payload,
    )


class TestMismatch:
    def test_digest_mismatch_refuses_restore(self):
        tampered = _with_digest(_end_snapshot("art"), "0" * 32)
        with pytest.raises(CheckpointError, match="another 'art' image"):
            restore(tampered)

    def test_unknown_workload_refuses_restore(self):
        with pytest.raises(CheckpointError, match="unknown workload"):
            snapshot_module._restore_shared_program(("no-such", 1))

    def test_engine_runs_cold_on_a_digest_mismatch(self, tmp_path):
        store = CheckpointStore(tmp_path)
        ExperimentEngine(cache=None, checkpoints=store).run(
            [make_job("art", policy=POLICY, max_instructions=B1,
                      warmup_instructions=WARMUP)],
            isolate=False,
        )
        paths = list((tmp_path / "checkpoints").rglob("*.ckpt"))
        assert paths
        for path in paths:
            tampered = _with_digest(
                Snapshot.from_bytes(path.read_bytes()), "f" * 32
            )
            path.write_bytes(tampered.to_bytes())

        engine = ExperimentEngine(
            cache=None, checkpoints=CheckpointStore(tmp_path)
        )
        outcome = engine.run(
            [make_job("art", policy=POLICY, max_instructions=B2,
                      warmup_instructions=WARMUP)],
            isolate=False,
        )[0]
        assert outcome.resumed_from is None
        assert engine.stats.jobs_resumed == 0
        assert json.dumps(outcome.result.to_dict()) == _cold("art")


class TestImageDigest:
    def test_one_word_or_the_order_changes_the_digest(self):
        words = {0x10000 + 8 * i: 3 * i for i in range(100)}
        digest = image_digest(words)
        assert len(digest) == 32
        assert image_digest(dict(words)) == digest
        changed = dict(words)
        changed[0x10000 + 8 * 50] += 1
        assert image_digest(changed) != digest
        reordered = dict(reversed(list(words.items())))
        assert reordered == words
        assert image_digest(reordered) != digest

    def test_float_and_mixed_images_digest_by_value_and_type(self):
        words = {0x10000: 0, 0x10008: 1.5}
        digest = image_digest(words)
        assert image_digest(dict(words)) == digest
        assert image_digest({0x10000: 0.0, 0x10008: 1.5}) != digest
        assert image_digest({0x10000: 0, 0x10008: 2.5}) != digest


class TestUnsharedWorkloads:
    def test_scenario_snapshots_in_full_and_resumes_as_cold(self):
        spec = CATALOG["stride-flip"]
        snapshot = _end_snapshot(spec.build(1))
        assert b"_restore_shared" not in _pickle(snapshot)
        sim = restore(snapshot)
        assert sim.workload.memory.image_key is None
        assert not sim.workload.memory._image
        assert capture(sim).to_bytes() == snapshot.to_bytes()
        assert _resumed(snapshot) == _cold(spec.build(1))

    def test_view_of_a_dropped_image_snapshots_in_full(self):
        sim = Simulation("dot", _config(B1))
        sim.run()
        load_workload("art")
        snapshot = capture(sim)
        assert b"_restore_shared" not in _pickle(snapshot)
        assert restore(snapshot).workload.memory.image_key is None


class TestInProcessChains:
    """One worker with checkpoints on runs each same-prefix chain back
    to back: every workload is built once, and the payloads equal the
    checkpoint-less run in ascending budget order."""

    WORKLOADS = ("dot", "art")
    POLICIES = (PrefetchPolicy.HW_ONLY, PrefetchPolicy.SELF_REPAIRING)
    BUDGETS = (1_000, 2_000, 3_000)

    def _jobs(self):
        return [
            make_job(name, policy=policy, max_instructions=budget,
                     warmup_instructions=WARMUP)
            for budget in self.BUDGETS
            for name in self.WORKLOADS
            for policy in self.POLICIES
        ]

    def _counted_run(self, monkeypatch, engine):
        builds = []
        monkeypatch.setattr(registry, "_last", None)
        for name in self.WORKLOADS:
            builder = registry._BUILDERS[name]
            monkeypatch.setitem(
                registry._BUILDERS, name,
                lambda seed, _name=name, _builder=builder: (
                    builds.append(_name) or _builder(seed)
                ),
            )
        outcomes = engine.run(self._jobs(), isolate=False)
        monkeypatch.undo()
        return [json.dumps(o.result.to_dict()) for o in outcomes], builds

    def test_one_build_per_workload_and_budget_order_payloads(
        self, monkeypatch, tmp_path
    ):
        chained = ExperimentEngine(
            cache=None, checkpoints=CheckpointStore(tmp_path)
        )
        payloads, builds = self._counted_run(monkeypatch, chained)
        assert builds == list(self.WORKLOADS)
        chains = len(self.WORKLOADS) * len(self.POLICIES)
        assert chained.stats.jobs_resumed == (
            chains * (len(self.BUDGETS) - 1)
        )

        in_budget_order = ExperimentEngine(cache=None, checkpoints=None)
        expected, cold_builds = self._counted_run(
            monkeypatch, in_budget_order
        )
        assert len(cold_builds) == len(self.BUDGETS) * len(self.WORKLOADS)
        assert payloads == expected
