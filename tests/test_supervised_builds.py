"""Supervised sweeps build a shared workload image once per worker.

A supervised worker runs one dispatch unit and starts with an empty
registry memo, so it builds the image its unit starts from.  The engine
packs the same-prefix chains that share a builtin image into at most one
unit per worker, so an image ``k`` chains share is built ``min(k,
workers)`` times rather than ``k`` times.  Builds are counted with a
patched builder that appends its workload and pid to a file, which
forked workers inherit along with the patch.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.checkpoint import CheckpointStore
from repro.config import PrefetchPolicy
from repro.harness.engine import ExperimentEngine, make_job
from repro.workloads import registry

WARMUP = 500
WORKERS = 2
#: One chain per policy: three chains share each image, one more than
#: there are workers.
POLICIES = (
    PrefetchPolicy.HW_ONLY,
    PrefetchPolicy.BASIC,
    PrefetchPolicy.SELF_REPAIRING,
)
BUDGETS = (1_000, 2_000)


def _job(name, policy=PrefetchPolicy.HW_ONLY, budget=BUDGETS[0]):
    return make_job(name, policy=policy, max_instructions=budget,
                    warmup_instructions=WARMUP)


def _count_builds(monkeypatch, tmp_path, names):
    """Patch ``names``' builders to log ``(name, pid)`` per build; returns
    a reader of the log.  Empties the memo so nothing is inherited."""
    log = tmp_path / "builds.log"
    log.write_text("")
    monkeypatch.setattr(registry, "_last", None)
    for name in names:
        builder = registry._BUILDERS[name]

        def counted(seed, _name=name, _builder=builder):
            with open(log, "a") as handle:
                handle.write(f"{_name} {os.getpid()}\n")
            return _builder(seed)

        monkeypatch.setitem(registry._BUILDERS, name, counted)

    def builds():
        return [
            (name, int(pid))
            for name, pid in (line.split() for line in log.read_text()
                              .splitlines())
        ]

    return builds


def _engine(tmp_path, checkpoints=True):
    return ExperimentEngine(
        workers=WORKERS, cache=None,
        checkpoints=(
            CheckpointStore(tmp_path / "checkpoints") if checkpoints
            else None
        ),
    )


def _payloads(outcomes):
    return [json.dumps(outcome.result.to_dict()) for outcome in outcomes]


def _assert_built_per_worker(built, names, per_image):
    assert sorted(name for name, _pid in built) == sorted(
        names * per_image
    )
    pids = [pid for _name, pid in built]
    assert os.getpid() not in pids
    assert len(set(pids)) == len(pids)  # each build in its own worker


class TestSharedImages:
    def test_a_shared_image_is_built_once_per_worker(
        self, monkeypatch, tmp_path
    ):
        names = ("mcf", "swim")
        jobs = [
            _job(name, policy, budget)
            for name in names for policy in POLICIES for budget in BUDGETS
        ]
        builds = _count_builds(monkeypatch, tmp_path, names)
        engine = _engine(tmp_path)
        supervised = engine.run(jobs, isolate=False)
        _assert_built_per_worker(builds(), names, WORKERS)
        # Every chain resumed its second budget from its first, also
        # the chain that shares a worker with another chain.
        assert engine.stats.jobs_resumed == len(names) * len(POLICIES)

        in_process = ExperimentEngine(cache=None, checkpoints=None)
        assert _payloads(supervised) == _payloads(
            in_process.run(jobs, isolate=False)
        )

    def test_policy_major_submission_packs_by_image(
        self, monkeypatch, tmp_path
    ):
        names = ("dot", "swim")
        jobs = [
            _job(name, policy, budget)
            for policy in POLICIES for name in names for budget in BUDGETS
        ]
        builds = _count_builds(monkeypatch, tmp_path, names)
        outcomes = _engine(tmp_path).run(jobs, isolate=False)
        assert all(outcome.ok for outcome in outcomes)
        _assert_built_per_worker(builds(), names, WORKERS)

    @pytest.mark.parametrize("chains", [1, WORKERS])
    def test_no_more_chains_than_workers_build_one_each(
        self, monkeypatch, tmp_path, chains
    ):
        names = ("dot", "swim")
        jobs = [_job(name, policy, budget)
                for budget in BUDGETS for name in names
                for policy in POLICIES[:chains]]
        builds = _count_builds(monkeypatch, tmp_path, names)
        outcomes = _engine(tmp_path).run(jobs, isolate=False)
        assert all(outcome.ok for outcome in outcomes)
        _assert_built_per_worker(builds(), names, chains)

    def test_a_failed_build_fails_only_its_own_jobs(self, tmp_path):
        jobs = [_job(name, policy) for name in ("bogus", "art")
                for policy in POLICIES]
        outcomes = _engine(tmp_path).run(jobs)
        assert [outcome.ok for outcome in outcomes] == [
            False, False, False, True, True, True,
        ]
        assert {outcome.error["type"] for outcome in outcomes[:3]} == {
            "ConfigError",
        }


class TestUnits:
    def _units(self, engine, jobs):
        return engine._units(jobs, list(range(len(jobs))))

    def test_chains_are_dealt_whole_and_in_budget_order(self, tmp_path):
        # Indexes: policy p, budget b of art at 2p + b; dot after.
        jobs = [_job("art", policy, budget)
                for policy in POLICIES for budget in BUDGETS]
        jobs.append(_job("dot"))
        assert self._units(_engine(tmp_path), jobs) == [
            [0, 1, 4, 5], [2, 3], [6],
        ]

    def test_without_checkpoints_every_job_is_a_chain(self, tmp_path):
        jobs = [_job("art", policy) for policy in POLICIES]
        jobs.append(_job("dot"))
        engine = _engine(tmp_path, checkpoints=False)
        assert self._units(engine, jobs) == [[0, 2], [1], [3]]

    def test_scenario_chains_are_not_packed(self, tmp_path):
        jobs = [_job("scenario:ramp-chase", policy) for policy in POLICIES]
        assert self._units(_engine(tmp_path), jobs) == [[0], [1], [2]]
