"""Engine recovery paths: supervised reclaims of killed workers,
interrupt flushing, the CLI's clean SIGINT/SIGTERM exits, and
resume-sweep."""

from __future__ import annotations

import os
import signal

import pytest

from repro.__main__ import main
from repro.faults.chaos import ChaosDecision, ChaosPlan, ChaosSchedule
from repro.harness import engine as engine_mod
from repro.harness.cache import ResultCache
from repro.harness.engine import ExperimentEngine, make_job
from repro.harness.journal import JobJournal, job_key

BUDGET = 2_000
WARMUP = 200


def _jobs(workloads=("art", "dot", "mcf")):
    return [
        make_job(w, max_instructions=BUDGET, warmup_instructions=WARMUP)
        for w in workloads
    ]


def _chaos_engine(tmp_path, kills, **kwargs) -> ExperimentEngine:
    """A two-worker engine whose only chaos is ``kills``: job key ->
    number of leading attempts killed before the job computes."""
    plan = ChaosPlan(seed=7)  # rates 0: nothing but the forced kills
    engine = ExperimentEngine(
        workers=2, cache=ResultCache(tmp_path / "cache"), chaos=plan,
        **kwargs,
    )
    engine.chaos = ChaosSchedule(plan=plan, _forced={
        (key, attempt): ChaosDecision(kill_phase="pre")
        for key, attempts in kills.items()
        for attempt in range(attempts)
    })
    return engine


class TestSupervisedRecovery:
    def test_killed_worker_is_reclaimed_and_retried(self, tmp_path):
        """A worker dying mid-sweep loses only its own attempt: the
        supervisor reclaims the job, retries it, and every other chain
        finishes undisturbed."""
        jobs = _jobs()
        engine = _chaos_engine(tmp_path, {job_key(jobs[0].spec()): 1})
        outcomes = engine.run(jobs)
        assert all(outcome.ok for outcome in outcomes)
        assert engine.stats.leases_reclaimed >= 1
        assert engine.stats.jobs_retried >= 1
        assert engine.stats.jobs_quarantined == 0

    def test_persistent_crasher_is_quarantined_not_looped(self, tmp_path):
        """A job that kills its worker on every attempt ends as a poison
        record after three strikes, not an infinite loop, and the rest
        of the sweep still completes."""
        jobs = _jobs(("art", "dot"))
        engine = _chaos_engine(tmp_path, {job_key(jobs[0].spec()): 3})
        poisoned, survivor = engine.run(jobs)
        assert not poisoned.ok
        assert poisoned.error["type"] == "PoisonJobError"
        assert poisoned.error["strikes"] == 3
        assert survivor.ok
        assert engine.stats.jobs_quarantined == 1

    def test_journal_records_reclaims(self, tmp_path):
        jobs = _jobs()
        journal = JobJournal(tmp_path / "j")
        engine = _chaos_engine(
            tmp_path, {job_key(jobs[0].spec()): 1}, journal=journal
        )
        engine.run(jobs)
        state = journal.recover()
        assert state.unfinished() == []
        assert sum(r.strikes for r in state.jobs.values()) >= 1


class TestInterruptFlush:
    def test_interrupt_keeps_finished_work_durable(
        self, tmp_path, monkeypatch
    ):
        """A SIGINT mid-sweep: jobs that finished are already in the
        cache and journal; the journal records the interruption; a
        resumed run replays them instead of recomputing."""
        jobs = _jobs(("art", "dot"))
        real = engine_mod._execute_job

        def interrupt_on_dot(job, *args, **kwargs):
            if job.workload == "dot":
                raise KeyboardInterrupt
            return real(job, *args, **kwargs)

        monkeypatch.setattr(engine_mod, "_execute_job", interrupt_on_dot)
        cache = ResultCache(tmp_path / "cache")
        journal = JobJournal(tmp_path / "j")
        engine = ExperimentEngine(cache=cache, journal=journal)
        with pytest.raises(KeyboardInterrupt):
            engine.run(jobs)

        state = journal.recover()
        assert state.interrupted
        done = [r for r in state.jobs.values() if r.state == "done"]
        assert len(done) == 1  # art finished before the interrupt

        monkeypatch.setattr(engine_mod, "_execute_job", real)
        resumed = ExperimentEngine(
            cache=cache, journal=JobJournal(tmp_path / "j")
        )
        outcomes = resumed.run(jobs)
        assert all(outcome.ok for outcome in outcomes)
        assert resumed.stats.jobs_cached == 1  # art replayed, not re-run


class TestSignalExits:
    def _fake_figure(self, exc):
        def figure(**kwargs):
            raise exc
        return figure

    def test_sigint_exits_130_without_traceback(
        self, monkeypatch, capsys
    ):
        import repro.__main__ as cli

        monkeypatch.setitem(
            cli._FIGURES, "5", self._fake_figure(KeyboardInterrupt())
        )
        assert main(["figure", "5"]) == 130
        err = capsys.readouterr().err
        assert "interrupted (SIGINT)" in err
        assert "Traceback" not in err

    def test_sigterm_exits_143(self, monkeypatch, capsys):
        import repro.__main__ as cli

        def figure(**kwargs):
            # Raise the real signal: the installed handler must convert
            # it into a clean exit, not a KeyboardInterrupt traceback.
            os.kill(os.getpid(), signal.SIGTERM)
            raise AssertionError("signal was not delivered")

        monkeypatch.setitem(cli._FIGURES, "5", figure)
        assert main(["figure", "5"]) == 143
        err = capsys.readouterr().err
        assert "interrupted (SIGTERM)" in err

    def test_handlers_are_restored_after_main(self):
        before = signal.getsignal(signal.SIGTERM)
        main(["list"])
        assert signal.getsignal(signal.SIGTERM) == before


class TestResumeSweepCLI:
    def test_resume_sweep_replays_interrupted_run(
        self, tmp_path, capsys, monkeypatch
    ):
        journal_dir = str(tmp_path / "journal")
        code = main([
            "figure", "5", "--workloads", "art,dot",
            "--instructions", str(BUDGET), "--warmup", str(WARMUP),
            "--journal-dir", journal_dir,
        ])
        assert code == 0
        capsys.readouterr()

        code = main(["resume-sweep", "--journal-dir", journal_dir])
        captured = capsys.readouterr()
        assert code == 0
        assert "replayed from cache" in captured.out
        assert "re-simulated" in captured.out
        assert "0 unfinished" in captured.err

    def test_resume_sweep_requires_journal_dir(self, capsys):
        assert main(["resume-sweep"]) == 2
        assert "requires --journal-dir" in capsys.readouterr().err

    def test_resume_sweep_with_empty_journal(self, tmp_path, capsys):
        assert main(
            ["resume-sweep", "--journal-dir", str(tmp_path / "nothing")]
        ) == 2
        assert "no recoverable journal" in capsys.readouterr().err

    def test_chaos_flag_round_trips_through_cli(self, tmp_path, capsys):
        # --no-cache keeps the jobs genuinely pending (a warm cache
        # would replay everything and give chaos nothing to disturb).
        code = main([
            "figure", "5", "--workloads", "art",
            "--instructions", str(BUDGET), "--warmup", str(WARMUP),
            "--jobs", "2", "--no-cache",
            "--journal-dir", str(tmp_path / "j"),
            "--chaos", "seed=7", "kill-rate=0.2",
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert "chaos: kills=" in captured.err
        assert "reclaimed=" in captured.err


def _cache_publisher(root):
    cache = ResultCache(root)
    key = cache.key_for({"k": 1})
    return cache, cache.path_for(key), lambda n: cache.put(
        key, {"k": 1}, {"ipc": float(n)}, 0.1
    )


def _checkpoint_publisher(root):
    from repro.checkpoint import FORMAT_VERSION, CheckpointStore, Snapshot

    store = CheckpointStore(root)
    prefix = "ab" * 32

    def publish(committed):
        return store.put(prefix, Snapshot(
            header={
                "format": FORMAT_VERSION, "committed": committed,
                "cycles": 2.0 * committed, "payload_bytes": 1,
            },
            payload=b"x",
        ))

    return store, store.path_for(prefix, 1), publish


def _telemetry_publisher(root):
    from repro.obs.telemetry import TelemetryHub

    hub = TelemetryHub(out_dir=root)

    def publish(n):
        hub.metrics.gauge("test.publishes").set(n)
        hub.flush()

    return None, root / "telemetry.json", publish


class TestHardenedStores:
    @pytest.mark.parametrize(
        "publisher, engine_arg",
        [
            (_cache_publisher, "cache"),
            (_checkpoint_publisher, "checkpoints"),
            (_telemetry_publisher, None),
        ],
        ids=["ResultCache", "CheckpointStore", "TelemetryHub"],
    )
    def test_disk_full_disables_cache_not_the_sweep(
        self, tmp_path, monkeypatch, publisher, engine_arg
    ):
        """ENOSPC on publish keeps the last published file intact, leaves
        no temp beside it, and turns a store off for the rest of the
        run instead of failing the sweep."""
        import errno

        store, target, publish = publisher(tmp_path / "store")
        assert publish(1) is not False
        published = target.read_bytes()

        def replace_enospc(src, dst):
            raise OSError(errno.ENOSPC, "no space left on device")

        monkeypatch.setattr(os, "replace", replace_enospc)
        assert not publish(2)
        monkeypatch.undo()
        assert target.read_bytes() == published
        assert not [p for p in target.parent.iterdir() if ".tmp." in p.name]
        if engine_arg is None:
            return
        assert store.disabled
        # Still off for the rest of the run — degraded, not flapping.
        assert publish(3) is False
        engine = ExperimentEngine(**{engine_arg: store})
        assert engine.run(_jobs(("art",)))[0].ok

    def test_checkpoint_quarantine_moves_corrupt_snapshot(self, tmp_path):
        from repro.checkpoint import CheckpointStore

        store = CheckpointStore(tmp_path)
        prefix = store.prefix_key(_jobs(("art",))[0].spec())
        path = store.path_for(prefix, 1_000)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"garbage")
        assert store.best(prefix, 2_000) is None
        assert store.quarantined == 1
        assert not path.exists()
        moved = list((tmp_path / "quarantine").rglob("*.ckpt"))
        assert len(moved) == 1
