"""The benchmark's workloads: sweeps of (workload x policy) cells.

Each sweep is submitted as one batch through ``ExperimentEngine.run``,
the path ``repro figure`` takes.  Budgets are explicit here: the
``REPRO_BENCH_*`` knobs that steer ``benchmarks/`` never reach a sweep.
Why each sweep exists is recorded once, in ``BENCHMARK.json``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple


@dataclass(frozen=True)
class Sweep:
    name: str
    workloads: Tuple[str, ...]
    policies: Tuple[str, ...]
    #: Measured instructions per cell, ascending; warmup is extra.
    budgets: Tuple[int, ...]
    warmup: int
    #: Engine worker processes in the untraced run.  The traced run
    #: always executes in-process so the wrappers see every call.
    workers: int
    #: Give the engine its default checkpoint store beside the result
    #: cache.  A single-budget sweep has nothing to resume, so there
    #: the end-of-run snapshots are left out of the measured loop.
    checkpoints: bool
    #: Journal the sweep, then replay it warm from the same roots.
    warm_replay: bool
    #: The (workload, policy) cell the traced run re-runs with
    #: ``fast=False`` at the largest budget.
    reference: Tuple[str, str]
    #: Per-layer counters that must read 0 on this sweep: the layers it
    #: is meant to bypass.
    bypassed: Tuple[str, ...] = ()

    def cells(self) -> List[Tuple[str, str, int]]:
        """(workload, policy, budget) in submission order."""
        return [
            (workload, policy, budget)
            for budget in self.budgets
            for workload in self.workloads
            for policy in self.policies
        ]


SWEEPS = {
    sweep.name: sweep
    for sweep in (
        Sweep(
            name="fig5",
            workloads=("mcf", "swim", "vis"),
            policies=("hw_only", "basic", "self_repairing"),
            budgets=(100_000,),
            warmup=50_000,
            workers=1,
            checkpoints=False,
            warm_replay=False,
            reference=("swim", "self_repairing"),
            # No batch compile once a Trident runtime is attached.
            bypassed=("fastpath.sw_batch_compiles", "checkpoint.saves"),
        ),
        Sweep(
            name="hw-zoo",
            workloads=("applu", "swim", "mcf", "scenario:hash-churn"),
            policies=("hw_only", "ghb_delta", "adaptive_nextline",
                      "triangel", "power7_reconfig"),
            budgets=(60_000,),
            warmup=20_000,
            workers=1,
            checkpoints=False,
            warm_replay=False,
            reference=("applu", "hw_only"),
            bypassed=("trident.ticks", "checkpoint.saves"),
        ),
        Sweep(
            name="sweep-short",
            workloads=("mcf", "equake", "parser", "swim", "art", "applu"),
            policies=("hw_only", "self_repairing", "ghb_delta"),
            budgets=(2_000, 4_000, 8_000),
            warmup=2_000,
            workers=2,
            checkpoints=True,
            warm_replay=True,
            reference=("mcf", "self_repairing"),
        ),
    )
}
