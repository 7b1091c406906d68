"""Differential proof that the decoded fast path is a pure optimization.

``SMTCore`` has two interpreters: the reference stepper
(``_run_slow`` / ``_step_original`` / ``_step_trace``) and the decoded
fast path (``fastpath.py``: per-instruction steps rendered from one
template per instruction shape, stepped block by block when no hook
runs between them, and one generated function per linked trace).  Everything observable must be
byte-identical between them:

* the full ``SimulationResult.to_dict()`` payload, for every registered
  workload and every prefetch policy,
* windowed IPC samples and the observer's metrics snapshot,
* the structured event stream (compared through the JSONL exporter, the
  same byte-for-byte comparison the determinism tests use),
* cached engine replays (``fast`` is part of the cache key, so a cached
  slow-path result can never masquerade as a fast-path one).

Budgets are small — the point is coverage of every workload's opcode
mix and every policy's hook traffic, not statistical weight.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from conftest import simple_stride_program
from repro.config import MachineConfig, PrefetchPolicy
from repro.cpu.core import SMTCore
from repro.harness.cache import ResultCache
from repro.harness.engine import ExperimentEngine, make_job
from repro.harness.runner import run_simulation
from repro.memory.hierarchy import MemoryHierarchy
from repro.hwprefetch.zoo import zoo_names
from repro.memory.mainmem import DataMemory
from repro.obs import Observer
from repro.obs.export import write_jsonl
from repro.workloads import BENCHMARK_NAMES

BUDGET = 2_000
WARMUP = 500
POLICY_SWEEP_WORKLOADS = ["mcf", "swim"]

#: Every selectable policy: the paper's enum plus the hardware-
#: prefetcher zoo (zoo engines hook the hierarchy, not the
#: interpreters, so fast/slow identity must hold for them too).
ALL_POLICIES = list(PrefetchPolicy) + list(zoo_names())


def _policy_id(policy) -> str:
    return policy.value if isinstance(policy, PrefetchPolicy) else policy


def _canon(result) -> str:
    # No sort_keys: dict ordering is part of the payload contract.
    return json.dumps(result.to_dict())


def _run(name, fast, **kwargs):
    kwargs.setdefault("max_instructions", BUDGET)
    kwargs.setdefault("warmup_instructions", WARMUP)
    return run_simulation(name, fast=fast, **kwargs)


class TestEveryWorkload:
    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_payload_identical(self, name):
        slow = _run(name, fast=False)
        fast = _run(name, fast=True)
        assert _canon(fast) == _canon(slow)


class TestEveryPolicy:
    @pytest.mark.parametrize("name", POLICY_SWEEP_WORKLOADS)
    @pytest.mark.parametrize("policy", ALL_POLICIES, ids=_policy_id)
    def test_payload_identical(self, name, policy):
        slow = _run(name, fast=False, policy=policy)
        fast = _run(name, fast=True, policy=policy)
        assert _canon(fast) == _canon(slow)


class TestObservability:
    def test_samples_identical(self):
        slow = _run("swim", fast=False, sample_interval=500)
        fast = _run("swim", fast=True, sample_interval=500)
        assert _canon(fast) == _canon(slow)

    def test_event_stream_identical(self, tmp_path):
        paths = {}
        for fast in (False, True):
            obs = Observer()
            _run("mcf", fast=fast, observer=obs,
                 policy=PrefetchPolicy.SELF_REPAIRING)
            path = tmp_path / f"events_fast={fast}.jsonl"
            write_jsonl(obs.events(), str(path))
            paths[fast] = path
        assert paths[True].read_bytes() == paths[False].read_bytes()

    def test_metrics_snapshot_identical(self):
        snapshots = {}
        for fast in (False, True):
            obs = Observer(sample_interval=500)
            _run("mcf", fast=fast, observer=obs,
                 policy=PrefetchPolicy.SELF_REPAIRING)
            snapshots[fast] = json.dumps(obs.snapshot(), sort_keys=True)
        assert snapshots[True] == snapshots[False]


class TestChunkedRuns:
    """``run(drain=False)`` at chunk boundaries must be invisible.

    The interval sampler stops the core mid-run to take a window sample
    and resumes; the fast path's block runs may be mid-flight when a
    chunk budget lands.  Chunked and unchunked runs must leave bit-equal
    core, cache, and stats state — on both interpreters, and across
    them.
    """

    BUDGET = 2_000

    @staticmethod
    def _fresh_core(fast):
        config = MachineConfig()
        memory = DataMemory()
        hierarchy = MemoryHierarchy(config)
        program = simple_stride_program(iters=5_000, stride=24)
        core = SMTCore(program, memory, hierarchy, config, fast=fast)
        return core, memory, hierarchy

    @classmethod
    def _state(cls, core, memory, hierarchy):
        return {
            "regs": list(core.ctx.regs),
            "pc": core.ctx.pc,
            "halted": core.ctx.halted,
            "cycles": core.cycles,
            "stats": dataclasses.asdict(core.stats),
            "mem_stats": dataclasses.asdict(hierarchy.stats),
            "l1_lines": sorted(
                (block, meta) for bucket in hierarchy.l1._sets.values()
                for block, meta in bucket.items()
            ),
            "unmapped_reads": memory.unmapped_reads,
        }

    @classmethod
    def _run_chunked(cls, fast, chunk):
        core, memory, hierarchy = cls._fresh_core(fast)
        # Cumulative budgets, mirroring the sampler's stop/resume loop;
        # only the final call drains.
        for stop in range(chunk, cls.BUDGET, chunk):
            core.run(stop, drain=False)
        core.run(cls.BUDGET, drain=True)
        return cls._state(core, memory, hierarchy)

    @classmethod
    def _run_unchunked(cls, fast):
        core, memory, hierarchy = cls._fresh_core(fast)
        core.run(cls.BUDGET, drain=True)
        return cls._state(core, memory, hierarchy)

    @pytest.mark.parametrize("fast", [True, False], ids=["fast", "slow"])
    # 250 lands on block boundaries of the 4-instruction loop; 333 lands
    # mid-block, clamping the fast path's block run.
    @pytest.mark.parametrize("chunk", [250, 333])
    def test_chunked_equals_unchunked(self, fast, chunk):
        assert self._run_chunked(fast, chunk) == self._run_unchunked(fast)

    def test_chunked_fast_equals_unchunked_slow(self):
        assert self._run_chunked(True, 333) == self._run_unchunked(False)


class TestEngineCaching:
    def _jobs(self, fast):
        return [
            make_job(
                name, policy=PrefetchPolicy.SELF_REPAIRING,
                max_instructions=BUDGET, warmup_instructions=WARMUP,
                fast=fast,
            )
            for name in POLICY_SWEEP_WORKLOADS
        ]

    def test_fast_flag_is_part_of_cache_key(self, tmp_path):
        cache = ResultCache(tmp_path)
        engine = ExperimentEngine(workers=1, cache=cache)
        engine.run_all(self._jobs(fast=True))
        engine.run_all(self._jobs(fast=False))
        # Four distinct simulations: the slow jobs must not replay the
        # fast jobs' cached results (or vice versa).
        assert engine.stats.jobs_run == 4
        assert engine.stats.jobs_cached == 0

    def test_cached_replay_identical_across_paths(self, tmp_path):
        cache = ResultCache(tmp_path)
        first = ExperimentEngine(workers=1, cache=cache)
        fresh_fast = [_canon(r) for r in first.run_all(self._jobs(True))]
        fresh_slow = [_canon(r) for r in first.run_all(self._jobs(False))]
        assert fresh_fast == fresh_slow

        replay = ExperimentEngine(workers=1, cache=cache)
        replay_fast = [_canon(r) for r in replay.run_all(self._jobs(True))]
        replay_slow = [_canon(r) for r in replay.run_all(self._jobs(False))]
        assert replay.stats.jobs_cached == 4
        assert replay_fast == fresh_fast
        assert replay_slow == fresh_slow
