"""The worker supervisor: per-job result streaming, crash reclamation,
lease expiry on hangs, structured retry, and poison quarantine."""

from __future__ import annotations

from repro.errors import PoisonJobError, classify, PERMANENT, POISON, TRANSIENT
from repro.faults.chaos import ChaosDecision, ChaosPlan, ChaosSchedule
from repro.harness.engine import make_job
from repro.harness.journal import JobJournal, job_key
from repro.harness.supervisor import RetryPolicy, WorkerSupervisor

BUDGET = 2_000
WARMUP = 200

#: Fast retries so a reclaim-and-retry round trip stays sub-second.
FAST_RETRY = RetryPolicy(max_attempts=3, backoff_base_s=0.01)


def _job(workload="art", **overrides):
    kwargs = dict(max_instructions=BUDGET, warmup_instructions=WARMUP)
    kwargs.update(overrides)
    return make_job(workload, **kwargs)


def _forced_chaos(decisions, hang_s=5.0) -> ChaosSchedule:
    """A schedule that disturbs exactly the given (key, attempt) pairs
    (kill_rate 0 keeps every other draw clean)."""
    return ChaosSchedule(
        plan=ChaosPlan(seed=1, hang_s=hang_s), _forced=dict(decisions)
    )


def _run(supervisor, units, chaos=None, ckpt_root=None):
    keys = [[job_key(job.spec()) for job in unit] for unit in units]
    return supervisor.execute(
        units, keys, ckpt_root, True, chaos=chaos
    )


class TestHappyPath:
    def test_results_come_back_in_unit_order(self):
        supervisor = WorkerSupervisor(workers=2, retry=FAST_RETRY)
        units = [[_job("art")], [_job("dot")]]
        results = _run(supervisor, units)
        assert [len(unit) for unit in results] == [1, 1]
        assert all(outcome.ok for unit in results for outcome in unit)
        assert results[0][0].result.workload == "art"
        assert results[1][0].result.workload == "dot"
        assert supervisor.dispatches == 2
        assert supervisor.reclaimed == 0

    def test_chain_streams_all_members(self):
        supervisor = WorkerSupervisor(workers=1, retry=FAST_RETRY)
        unit = [_job(max_instructions=n) for n in (1_000, 2_000)]
        results = _run(supervisor, [unit])
        assert [outcome.ok for outcome in results[0]] == [True, True]
        # One process ran the whole chain.
        assert supervisor.dispatches == 1


class TestCrashReclaim:
    def test_pre_kill_is_reclaimed_and_retried(self, tmp_path):
        job = _job()
        key = job_key(job.spec())
        chaos = _forced_chaos({(key, 0): ChaosDecision(kill_phase="pre")})
        journal = JobJournal(tmp_path / "j")
        supervisor = WorkerSupervisor(
            workers=1, retry=FAST_RETRY, journal=journal
        )
        results = _run(supervisor, [[job]], chaos=chaos)
        assert results[0][0].ok
        assert supervisor.reclaimed == 1
        assert supervisor.crashes == 1
        assert supervisor.retries == 1
        assert supervisor.quarantined == 0
        record = journal.recover().jobs[key]
        assert record.state == "done"
        assert record.strikes == 1

    def test_post_kill_recovers_from_checkpoint_not_recompute(
        self, tmp_path
    ):
        """A worker killed *after* computing but before reporting left
        its end-of-run snapshot in the store: the retry resumes it
        instead of paying for the run again."""
        job = _job()
        key = job_key(job.spec())
        chaos = _forced_chaos({(key, 0): ChaosDecision(kill_phase="post")})
        supervisor = WorkerSupervisor(workers=1, retry=FAST_RETRY)
        results = _run(
            supervisor, [[job]], chaos=chaos,
            ckpt_root=str(tmp_path / "ckpt"),
        )
        outcome = results[0][0]
        assert outcome.ok
        assert supervisor.reclaimed == 1
        assert outcome.resumed_from == job.total_budget()

    def test_earlier_chain_results_survive_a_later_kill(self):
        """Per-job pipe streaming: job 0's result is parent-side before
        job 1's attempt dies, so only job 1 re-runs."""
        short, long = _job(max_instructions=1_000), _job()
        kill_key = job_key(long.spec())
        chaos = _forced_chaos(
            {(kill_key, 0): ChaosDecision(kill_phase="pre")}
        )
        streamed = []
        supervisor = WorkerSupervisor(workers=1, retry=FAST_RETRY)
        results = supervisor.execute(
            [[short, long]],
            [[job_key(short.spec()), kill_key]],
            None, True, chaos=chaos,
            on_outcome=lambda unit, pos, out: streamed.append(pos),
        )
        assert [outcome.ok for outcome in results[0]] == [True, True]
        assert supervisor.reclaimed == 1
        # Job 0 crossed the pipe exactly once; job 1 after its retry.
        assert streamed.count(0) == 1
        assert streamed.count(1) == 1


class TestLeases:
    def test_hang_expires_lease_and_reclaims(self):
        job = _job()
        key = job_key(job.spec())
        chaos = _forced_chaos(
            {(key, 0): ChaosDecision(hang=True)}, hang_s=30.0
        )
        supervisor = WorkerSupervisor(
            workers=1, lease_s=0.3, heartbeat_s=0.05, retry=FAST_RETRY
        )
        results = _run(supervisor, [[job]], chaos=chaos)
        assert results[0][0].ok
        assert supervisor.lease_expiries == 1
        assert supervisor.reclaimed == 1
        # Heartbeats flowed while the worker hung: liveness and
        # progress are separate signals.
        assert supervisor.heartbeats >= 1


class TestPoison:
    def test_repeated_strikes_quarantine_with_poison_record(self):
        job = _job()
        key = job_key(job.spec())
        chaos = _forced_chaos({
            (key, attempt): ChaosDecision(kill_phase="pre")
            for attempt in range(3)
        })
        supervisor = WorkerSupervisor(workers=1, retry=FAST_RETRY)
        results = _run(supervisor, [[job]], chaos=chaos)
        outcome = results[0][0]
        assert not outcome.ok
        assert outcome.error["type"] == "PoisonJobError"
        assert outcome.error["strikes"] == 3
        assert supervisor.quarantined == 1
        assert supervisor.reclaimed == 3

    def test_quarantine_frees_the_rest_of_the_chain(self):
        poison, innocent = _job(), _job(max_instructions=3_000)
        pkey = job_key(poison.spec())
        chaos = _forced_chaos({
            (pkey, attempt): ChaosDecision(kill_phase="pre")
            for attempt in range(3)
        })
        supervisor = WorkerSupervisor(workers=1, retry=FAST_RETRY)
        results = _run(supervisor, [[poison, innocent]], chaos=chaos)
        assert not results[0][0].ok
        assert results[0][1].ok  # the chain continued past the poison

    def test_classify_taxonomy(self):
        from repro.errors import LeaseExpiredError, WorkerCrashError

        assert classify(WorkerCrashError("x")) == TRANSIENT
        assert classify(LeaseExpiredError("x")) == TRANSIENT
        assert classify(PoisonJobError("x", strikes=3)) == POISON
        assert classify(ValueError("x")) == PERMANENT


class TestRetryPolicy:
    def test_backoff_is_deterministic_per_key(self):
        policy = RetryPolicy()
        assert policy.delay(1, "k") == policy.delay(1, "k")
        assert policy.delay(1, "k") != policy.delay(1, "other")

    def test_backoff_grows_exponentially(self):
        policy = RetryPolicy(
            backoff_base_s=0.1, backoff_factor=2.0, jitter=0.25
        )
        first, second = policy.delay(1, "k"), policy.delay(2, "k")
        assert second > first
        # Jitter stays within its +/- 25% envelope.
        assert 0.075 <= first <= 0.125
        assert 0.15 <= second <= 0.25

    def test_gauges_reflect_fleet_health(self):
        from repro.obs import MetricsRegistry

        metrics = MetricsRegistry()
        supervisor = WorkerSupervisor(
            workers=1, retry=FAST_RETRY, metrics=metrics
        )
        _run(supervisor, [[_job()]])
        assert metrics.gauge("fleet.dispatches").value == 1
        assert metrics.gauge("fleet.reclaimed").value == 0
        assert metrics.gauge("fleet.live_workers").value == 0
