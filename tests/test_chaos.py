"""The chaos harness: plan parsing, schedule determinism, and the
headline guarantee — a chaos-disturbed figure run produces byte-identical
output, with completed work recovered rather than recomputed."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.faults.chaos import (
    ChaosDecision,
    ChaosPlan,
    ChaosSchedule,
)
from repro.harness import experiments
from repro.harness.cache import ResultCache
from repro.harness.engine import ExperimentEngine, make_job
from repro.harness.journal import JobJournal, job_key

BUDGET = 2_000
WARMUP = 200
WORKLOADS = ["art", "dot"]


def _engine(tmp_path, name, **kwargs) -> ExperimentEngine:
    return ExperimentEngine(
        cache=ResultCache(tmp_path / name), **kwargs
    )


class TestPlan:
    def test_parse_tokens(self):
        plan = ChaosPlan.parse(
            ["seed=9", "kill-rate=0.5", "hang-rate=0.1", "hang-s=2",
             "max-kills=1", "torn-journal=2", "corrupt-cache-rate=0.3"]
        )
        assert plan.seed == 9
        assert plan.kill_rate == 0.5
        assert plan.hang_rate == 0.1
        assert plan.hang_s == 2.0
        assert plan.max_kills_per_job == 1
        assert plan.torn_journal == 2
        assert plan.corrupt_cache_rate == 0.3

    def test_parse_splits_commas(self):
        plan = ChaosPlan.parse(["seed=3,kill-rate=0.2"])
        assert (plan.seed, plan.kill_rate) == (3, 0.2)

    def test_parse_rejects_unknown_and_malformed(self):
        with pytest.raises(ConfigError, match="unknown chaos option"):
            ChaosPlan.parse(["frobnicate=1"])
        with pytest.raises(ConfigError, match="not key=value"):
            ChaosPlan.parse(["seed"])
        with pytest.raises(ConfigError, match="is not a"):
            ChaosPlan.parse(["kill-rate=lots"])

    def test_validation(self):
        with pytest.raises(ConfigError, match="probability"):
            ChaosPlan(kill_rate=1.5)
        with pytest.raises(ConfigError, match="max_kills_per_job"):
            ChaosPlan(max_kills_per_job=0)

    def test_decisions_are_deterministic(self):
        a = ChaosPlan(seed=7, kill_rate=0.5, hang_rate=0.2)
        b = ChaosPlan(seed=7, kill_rate=0.5, hang_rate=0.2)
        for key in ("k1", "k2", "k3"):
            for attempt in range(3):
                assert a.decision(key, attempt) == b.decision(key, attempt)
        assert any(
            not a.decision(f"key{i}", 0).clean for i in range(32)
        )

    def test_max_kills_caps_disturbance(self):
        plan = ChaosPlan(seed=7, kill_rate=1.0, max_kills_per_job=2)
        assert not plan.decision("k", 0).clean
        assert not plan.decision("k", 1).clean
        assert plan.decision("k", 2).clean  # convergence guaranteed

    def test_schedule_forces_at_least_one_kill(self):
        # A seed whose draws all come up clean at rate 0.01 across two
        # keys: the smallest key must still die once.
        plan = ChaosPlan(seed=1, kill_rate=0.01)
        keys = ["aaa", "zzz"]
        schedule = plan.schedule(keys)
        decisions = [schedule.decision(k, 0) for k in sorted(keys)]
        assert any(d.kill_phase is not None for d in decisions)


class TestChaosEquivalence:
    """CI's chaos-smoke contract, as a test: same tables, disturbed run."""

    def _figure(self, engine):
        return experiments.fig5_policies(
            workloads=WORKLOADS, max_instructions=BUDGET,
            warmup=WARMUP, engine=engine,
        ).render()

    def test_killed_workers_do_not_change_the_figure(self, tmp_path):
        clean = self._figure(_engine(tmp_path, "clean"))
        journal = JobJournal(tmp_path / "journal")
        chaotic_engine = _engine(
            tmp_path, "chaos", workers=2, journal=journal,
            chaos=ChaosPlan(seed=7, kill_rate=0.2),
        )
        chaotic = self._figure(chaotic_engine)
        assert chaotic == clean
        stats = chaotic_engine.stats
        assert stats.leases_reclaimed >= 1  # the forced-kill guarantee
        assert stats.jobs_failed == 0
        assert chaotic_engine.chaos.kills_injected >= 1
        # Every journalled job reached a terminal state.
        state = journal.recover()
        assert state.jobs and state.unfinished() == []

    def test_post_kill_work_is_recovered_not_recomputed(self, tmp_path):
        """A worker killed after computing but before reporting: the
        retry must resume the stored end-of-run checkpoint — visible as
        jobs_resumed in the engine stats — not pay for the run again."""
        job = make_job(
            "art", max_instructions=BUDGET, warmup_instructions=WARMUP
        )
        key = job_key(job.spec())
        plan = ChaosPlan(seed=7)  # rates 0: only the forced kill below
        engine = _engine(tmp_path, "post", chaos=plan)
        engine.chaos = ChaosSchedule(
            plan=plan,
            _forced={(key, 0): ChaosDecision(kill_phase="post")},
        )
        outcome = engine.run([job])[0]
        assert outcome.ok
        assert engine.stats.leases_reclaimed == 1
        assert engine.stats.jobs_retried == 1
        assert engine.stats.jobs_resumed == 1
        assert outcome.resumed_from == job.total_budget()

    def test_torn_journal_recovers_everything_else(self, tmp_path):
        journal = JobJournal(tmp_path / "journal")
        engine = _engine(
            tmp_path, "torn", journal=journal,
            chaos=ChaosPlan(seed=7, torn_journal=1, kill_rate=0.2),
        )
        clean = self._figure(_engine(tmp_path, "clean"))
        assert self._figure(engine) == clean
        assert engine.chaos.journal_tears == 1
        state = JobJournal(tmp_path / "journal").recover()
        assert state.skipped >= 1  # the torn line failed its checksum
        # A torn 'start' is superseded by its job's terminal record.
        assert state.unfinished() == []

    def test_hangs_expire_their_lease_not_just_delay(self, tmp_path):
        """A hang plan leases each job for hang_s / 2, so an injected
        hang is killed and reclaimed instead of merely waited out."""

        def figure(engine):
            return experiments.fig6_breakdown(
                workloads=WORKLOADS, max_instructions=BUDGET,
                warmup=WARMUP, engine=engine,
            ).render()

        clean = figure(_engine(tmp_path, "clean"))
        engine = _engine(
            tmp_path, "hang", workers=2,
            chaos=ChaosPlan(seed=7, hang_rate=1.0, hang_s=2),
        )
        assert figure(engine) == clean
        assert engine.supervisor.lease_s == 1.0
        assert engine.stats.leases_reclaimed >= 1
        assert engine.supervisor.lease_expiries >= 1
        assert engine.stats.jobs_failed == 0

    def test_hang_free_plans_keep_the_long_lease(self):
        engine = ExperimentEngine(
            workers=2, cache=None, chaos=ChaosPlan(seed=7, kill_rate=0.2)
        )
        assert engine.supervisor.lease_s == 300.0

    def test_corrupted_cache_entries_quarantine_and_resimulate(
        self, tmp_path
    ):
        cache = ResultCache(tmp_path / "cache")
        plan = ChaosPlan(seed=7, corrupt_cache_rate=1.0)
        first = ExperimentEngine(cache=cache, chaos=plan)
        jobs = [
            make_job(
                w, max_instructions=BUDGET, warmup_instructions=WARMUP
            )
            for w in WORKLOADS
        ]
        outcomes = first.run(jobs)
        assert all(o.ok for o in outcomes)
        assert first.chaos.cache_corruptions == len(jobs)

        # A warm pass over the vandalised cache: every entry fails its
        # checksum, is quarantined, and the jobs re-simulate to the
        # identical result.
        second = ExperimentEngine(cache=cache)
        warm = second.run(jobs)
        assert all(o.ok and not o.cached for o in warm)
        assert cache.quarantined == len(jobs)
        quarantine = list((tmp_path / "cache" / "quarantine").iterdir())
        assert len(quarantine) == len(jobs)
        for fresh, re_run in zip(outcomes, warm):
            assert fresh.result.to_dict() == re_run.result.to_dict()

    def test_chaos_requires_a_plan(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError, match="chaos must be a ChaosPlan"):
            ExperimentEngine(chaos="kill-rate=1")

    def test_summary_shape(self):
        schedule = ChaosPlan(seed=7).schedule([])
        assert schedule.summary() == (
            "chaos: kills=0 hangs=0 cache_corruptions=0 journal_tears=0"
        )
