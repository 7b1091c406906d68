"""The content-addressed result cache: keying, invalidation, corruption
tolerance, atomic concurrent writes, and the sweeps' baseline reuse."""

from __future__ import annotations

import json
import threading

import pytest

from repro.config import PrefetchPolicy
from repro.faults.plan import FaultPlan
from repro.harness import runner
from repro.harness.blobstore import payload_checksum
from repro.harness.cache import (
    ENV_CODE_VERSION,
    ResultCache,
    stable_hash,
)
from repro.harness.engine import ExperimentEngine, make_job
from repro.harness.experiments import FIGURES, run_figure

BUDGET = 2_000
WARMUP = 200


def _job(**overrides):
    kwargs = dict(
        policy=PrefetchPolicy.HW_ONLY,
        max_instructions=BUDGET,
        warmup_instructions=WARMUP,
    )
    kwargs.update(overrides)
    return make_job("art", **kwargs)


@pytest.fixture(scope="module")
def result():
    """A real result payload: a stored entry must decode into one."""
    job = _job()
    return ExperimentEngine(cache=None).run([job])[0].result.to_dict()


def test_stable_hash_is_order_insensitive():
    assert stable_hash({"a": 1, "b": [2, 3]}) == stable_hash(
        {"b": [2, 3], "a": 1}
    )
    assert stable_hash({"a": 1}) != stable_hash({"a": 2})


def test_hit_after_store_miss_before(tmp_path, result):
    cache = ResultCache(tmp_path)
    key = cache.key_for(_job().spec())
    assert cache.get(key) is None
    assert cache.misses == 1
    assert cache.put(key, _job().spec(), result, elapsed_s=0.5)
    payload = cache.get(key)
    assert payload is not None
    assert payload["result"] == result
    assert payload["elapsed_s"] == 0.5
    assert cache.hits == 1


def test_identical_specs_share_a_key(tmp_path):
    cache = ResultCache(tmp_path)
    assert cache.key_for(_job().spec()) == cache.key_for(_job().spec())


def test_spec_changes_invalidate(tmp_path):
    """Any meaningful field of the job spec must change the key."""
    cache = ResultCache(tmp_path)
    base = cache.key_for(_job().spec())
    variants = [
        _job(policy=PrefetchPolicy.SELF_REPAIRING),          # config field
        _job(seed=2),                                        # config field
        _job(max_instructions=BUDGET + 1),                   # budget
        _job(warmup_instructions=WARMUP + 1),                # budget
        _job(sample_interval=500),                           # observation
        _job(fault_plan=FaultPlan.latency_phase_shift(       # fault plan
            at_instruction=1_000, extra_cycles=100, seed=1
        )),
    ]
    keys = [cache.key_for(v.spec()) for v in variants]
    assert base not in keys
    assert len(set(keys)) == len(keys)


def test_code_version_change_invalidates(tmp_path, monkeypatch):
    cache = ResultCache(tmp_path)
    monkeypatch.setenv(ENV_CODE_VERSION, "v1")
    first = cache.key_for(_job().spec())
    monkeypatch.setenv(ENV_CODE_VERSION, "v2")
    second = cache.key_for(_job().spec())
    assert first != second


def test_corrupted_entry_is_a_miss_not_a_crash(tmp_path):
    cache = ResultCache(tmp_path)
    spec = _job().spec()
    key = cache.key_for(spec)
    cache.put(key, spec, {"ipc": 1.0}, elapsed_s=0.1)
    path = cache.path_for(key)
    for garbage in (b"", b"{truncated", b"[1, 2, 3]", b'{"schema": 999}'):
        path.write_bytes(garbage)
        assert cache.get(key) is None
    # The engine re-simulates through the corruption and heals the entry.
    engine = ExperimentEngine(cache=cache)
    outcome = engine.run([_job()])[0]
    assert outcome.ok and not outcome.cached
    assert cache.get(key) is not None


def test_concurrent_writers_never_tear_an_entry(tmp_path, result):
    cache = ResultCache(tmp_path)
    spec = _job().spec()
    key = cache.key_for(spec)
    payload = dict(result, filler="x" * 64_000)
    errors = []

    def hammer():
        try:
            for _ in range(25):
                assert cache.put(key, spec, payload, elapsed_s=0.1)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=hammer) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    # Whatever interleaving happened, the entry parses whole.
    stored = cache.get(key)
    assert stored is not None and stored["result"] == payload
    # No temp files left behind.
    leftovers = [
        p for p in cache.path_for(key).parent.iterdir()
        if ".tmp." in p.name
    ]
    assert leftovers == []


def test_unwritable_root_degrades_to_no_cache(tmp_path):
    target = tmp_path / "blocked"
    target.write_text("a file where the cache root should be")
    cache = ResultCache(target)
    spec = _job().spec()
    key = cache.key_for(spec)
    assert cache.put(key, spec, {"ipc": 1.0}, elapsed_s=0.1) is False
    assert cache.get(key) is None
    outcome = ExperimentEngine(cache=cache).run([_job()])[0]
    assert outcome.ok


def test_sweep_baselines_simulated_once_across_ablations(
    tmp_path, monkeypatch
):
    """The sweeps' shared HW_ONLY baselines used to be re-simulated by
    every ablation; with the engine they are simulated once and replayed
    from the cache by every later ablation."""
    counts = {"runs": 0}
    original_run = runner.Simulation.run

    def counting_run(self):
        counts["runs"] += 1
        return original_run(self)

    monkeypatch.setattr(runner.Simulation, "run", counting_run)
    cache = ResultCache(tmp_path)
    workloads = ["art", "dot"]

    first = ExperimentEngine(cache=cache)
    run_figure(
        FIGURES["ablation_phase_detection"], workloads, BUDGET, WARMUP,
        engine=first,
    )
    # 2 baselines + 2 variants x 2 workloads, all fresh.
    assert counts["runs"] == 6
    # The "off" variant IS the plain SELF_REPAIRING run other sweeps
    # also need — but within one ablation nothing repeats, so all 6 ran.

    counts["runs"] = 0
    second = ExperimentEngine(cache=cache)
    result = run_figure(
        FIGURES["ablation_initial_distance"], workloads, BUDGET, WARMUP,
        engine=second,
    )
    # Baselines and the mode="one"-equivalent runs come from the cache;
    # only the genuinely new variant simulations run.
    assert counts["runs"] < 6
    assert second.stats.jobs_cached >= len(workloads)
    assert set(result.rows[0]) == {
        "workload",
        "start at 1 (paper default)",
        "start at estimate (eq. 2)",
    }


class TestReadPathHardening:
    """Every corrupt-entry variant is a quarantined miss, never an error."""

    def _stored(self, tmp_path, result):
        cache = ResultCache(tmp_path)
        spec = _job().spec()
        key = cache.key_for(spec)
        assert cache.put(key, spec, result, elapsed_s=0.1)
        return cache, key, cache.path_for(key)

    def test_truncated_json_is_quarantined(self, tmp_path, result):
        cache, key, path = self._stored(tmp_path, result)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        assert cache.get(key) is None
        assert cache.quarantined == 1
        assert not path.exists()
        assert (cache.quarantine_dir() / path.name).exists()

    def test_bad_checksum_is_quarantined(self, tmp_path, result):
        cache, key, path = self._stored(tmp_path, result)
        payload = json.loads(path.read_text())
        payload["result"]["ipc"] = 9.9  # bit rot; sum now stale
        path.write_text(json.dumps(payload))
        assert cache.get(key) is None
        assert cache.quarantined == 1
        assert not path.exists()

    def test_empty_file_is_quarantined(self, tmp_path, result):
        cache, key, path = self._stored(tmp_path, result)
        path.write_bytes(b"")
        assert cache.get(key) is None
        assert cache.quarantined == 1

    def test_legacy_entry_without_checksum_still_reads(
        self, tmp_path, result
    ):
        """Entries written before the ``sum`` field are verified only by
        shape and decode — a miss would needlessly re-simulate on
        upgrade."""
        cache, key, path = self._stored(tmp_path, result)
        payload = json.loads(path.read_text())
        del payload["sum"]
        path.write_text(json.dumps(payload))
        stored = cache.get(key)
        assert stored is not None
        assert cache.quarantined == 0

    def test_quarantined_entry_heals_on_next_run(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = _job()
        key = cache.key_for(job.spec())
        engine = ExperimentEngine(cache=cache)
        engine.run([job])
        path = cache.path_for(key)
        path.write_bytes(b"\x00garbage\x00")
        outcome = ExperimentEngine(cache=cache).run([job])[0]
        assert outcome.ok and not outcome.cached
        assert cache.quarantined == 1
        healed = cache.get(key)
        assert healed is not None

    def test_undecodable_entry_is_quarantined_not_a_hit(self, tmp_path):
        """An entry whose ``sum`` verifies but whose result no longer
        decodes is a quarantined miss, not a hit that re-simulates."""
        job = _job()
        ExperimentEngine(cache=ResultCache(tmp_path)).run([job])
        cache = ResultCache(tmp_path)
        path = cache.path_for(cache.key_for(job.spec()))
        payload = json.loads(path.read_text())
        del payload["result"]["cycles"]
        payload["sum"] = payload_checksum(payload["result"])
        path.write_text(json.dumps(payload))

        outcome = ExperimentEngine(cache=cache).run([job])[0]
        assert outcome.ok and not outcome.cached
        assert (cache.hits, cache.quarantined) == (0, 1)
        assert (cache.quarantine_dir() / path.name).exists()


def test_refresh_overwrites_and_no_cache_skips(tmp_path):
    cache = ResultCache(tmp_path)
    job = _job()
    key = cache.key_for(job.spec())
    ExperimentEngine(cache=cache).run([job])
    stamped = json.loads(cache.path_for(key).read_text())
    stamped["result"]["instructions"] = -1
    cache.path_for(key).write_text(json.dumps(stamped))

    refreshed = ExperimentEngine(cache=cache, refresh=True).run([job])[0]
    assert not refreshed.cached
    assert refreshed.result.instructions != -1
    healed = json.loads(cache.path_for(key).read_text())
    assert healed["result"]["instructions"] == refreshed.result.instructions

    uncached_engine = ExperimentEngine(cache=None)
    outcome = uncached_engine.run([job])[0]
    assert outcome.ok and not outcome.cached
    assert uncached_engine.stats.jobs_run == 1
