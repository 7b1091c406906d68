"""Supervised sweeps build each shared workload image about once.

A supervised worker runs one dispatch unit and starts with an empty
registry memo, so it builds the image its unit starts from.  The engine
packs all the same-prefix chains of a builtin image into one unit and
splits an image only to round the unit count up to a multiple of the
workers, so each image is built once, plus one build per extra unit,
rather than once per chain.  Builds are counted with a patched builder
that appends its workload and pid to a file, which forked workers
inherit along with the patch.
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


def _engine(tmp_path, checkpoints=True, workers=WORKERS):
    return ExperimentEngine(
        workers=workers, cache=None,
        checkpoints=(
            CheckpointStore(tmp_path / "checkpoints") if checkpoints
            else None
        ),
    )


def _payloads(outcomes):
    return [json.dumps(outcome.result.to_dict()) for outcome in outcomes]


def _assert_built_in_workers(built, expected):
    assert sorted(name for name, _pid in built) == sorted(expected)
    pids = [pid for _name, pid in built]
    assert os.getpid() not in pids
    assert len(set(pids)) == len(pids)  # each build in its own worker


class TestSharedImages:
    def test_a_shared_image_is_built_once(self, monkeypatch, tmp_path):
        names = ("mcf", "swim")
        jobs = [
            _job(name, policy, budget)
            for name in names for policy in POLICIES for budget in BUDGETS
        ]
        builds = _count_builds(monkeypatch, tmp_path, names)
        engine = _engine(tmp_path)
        supervised = engine.run(jobs, isolate=False)
        _assert_built_in_workers(builds(), names)
        # Every chain resumed its second budget from its first, also
        # the chains that run after another chain in the same worker.
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
        _assert_built_in_workers(builds(), names)

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
        _assert_built_in_workers(builds(), names)

    def test_the_sweep_short_shape_builds_each_image_once(
        self, monkeypatch, tmp_path
    ):
        # perfbench's sweep-short: 6 images x 3 policies, budget-major.
        names = ("mcf", "equake", "parser", "swim", "art", "applu")
        policies = ("hw_only", "self_repairing", "ghb_delta")
        jobs = [_job(name, policy, budget) for budget in BUDGETS
                for name in names for policy in policies]
        builds = _count_builds(monkeypatch, tmp_path, names)
        engine = _engine(tmp_path)
        outcomes = engine.run(jobs, isolate=False)
        assert all(outcome.ok for outcome in outcomes)
        _assert_built_in_workers(builds(), names)
        assert engine.stats.jobs_resumed == len(names) * len(policies)

    def test_an_extra_image_splits_to_fill_the_last_round(
        self, monkeypatch, tmp_path
    ):
        names = ("dot", "swim", "art")
        jobs = [_job(name, policy) for name in names for policy in POLICIES]
        builds = _count_builds(monkeypatch, tmp_path, names)
        outcomes = _engine(tmp_path).run(jobs, isolate=False)
        assert all(outcome.ok for outcome in outcomes)
        # Four units for two workers: dot, the first of three equal
        # images, is split in two.
        _assert_built_in_workers(builds(), names + ("dot",))

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
            [0, 1, 2, 3, 4, 5], [6],
        ]

    def test_without_checkpoints_every_job_is_a_chain(self, tmp_path):
        jobs = [_job("art", policy) for policy in POLICIES]
        jobs.append(_job("dot"))
        engine = _engine(tmp_path, checkpoints=False)
        assert self._units(engine, jobs) == [[0, 1, 2], [3]]

    def test_the_sweep_short_shape_is_one_unit_per_image(self, tmp_path):
        # Six images x three policies x three budgets, budget-major.
        names = ("mcf", "equake", "parser", "swim", "art", "applu")
        budgets = (2_000, 4_000, 8_000)
        jobs = [_job(name, policy, budget) for budget in budgets
                for name in names for policy in POLICIES]
        stride = len(names) * len(POLICIES)
        assert self._units(_engine(tmp_path), jobs) == [
            [len(POLICIES) * image + policy + stride * budget
             for policy in range(len(POLICIES))
             for budget in range(len(budgets))]
            for image in range(len(names))
        ]

    def test_three_images_on_two_workers_are_four_units(self, tmp_path):
        # art and dot pend 12000 instructions each and swim 4500, so the
        # fourth unit goes to art, the first of the two largest.
        jobs = [_job(name, policy, budget)
                for name in ("art", "dot") for policy in POLICIES
                for budget in BUDGETS]
        jobs += [_job("swim", policy) for policy in POLICIES]
        assert self._units(_engine(tmp_path), jobs) == [
            [6, 7, 8, 9, 10, 11], [0, 1, 4, 5], [12, 13, 14], [2, 3],
        ]

    def test_the_split_goes_to_the_largest_image(self, tmp_path):
        # dot pends 7500 instructions, art and swim 4500 each.
        jobs = [_job("art", policy) for policy in POLICIES]
        jobs += [_job("dot", policy, BUDGETS[1]) for policy in POLICIES]
        jobs += [_job("swim", policy) for policy in POLICIES]
        assert self._units(_engine(tmp_path), jobs) == [
            [3, 5], [0, 1, 2], [6, 7, 8], [4],
        ]

    def test_one_image_on_two_workers_is_two_units(self, tmp_path):
        jobs = [_job("art", policy, budget)
                for policy in POLICIES for budget in BUDGETS]
        assert self._units(_engine(tmp_path), jobs) == [
            [0, 1, 4, 5], [2, 3],
        ]

    def test_two_images_on_four_workers_are_four_units(self, tmp_path):
        jobs = [_job(name, policy, budget)
                for name in ("art", "dot") for policy in POLICIES
                for budget in BUDGETS]
        engine = _engine(tmp_path, workers=4)
        assert self._units(engine, jobs) == [
            [0, 1, 4, 5], [6, 7, 10, 11], [2, 3], [8, 9],
        ]

    def test_scenario_chains_are_not_packed(self, tmp_path):
        jobs = [_job("scenario:ramp-chase", policy) for policy in POLICIES]
        assert self._units(_engine(tmp_path), jobs) == [[0], [1], [2]]
