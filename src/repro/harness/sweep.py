"""Ablation sweeps over the design choices DESIGN.md calls out.

These go beyond the paper's figures: they isolate individual mechanisms of
the self-repairing design so a reader can see what each one buys.

Every ablation runs through the :class:`~repro.harness.engine
.ExperimentEngine`: the shared HW_ONLY baseline is content-addressed, so
six ablations asking for the same (workload, budget) baseline simulate it
once and replay it from the cache five times instead of re-running it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from dataclasses import dataclass, field

from ..config import DLTConfig, PrefetchPolicy, TridentConfig
from .engine import ExperimentEngine, SimJob, make_job
from .report import arithmetic_mean, render_table, speedup_percent


@dataclass
class AblationResult:
    title: str
    #: variant name -> {workload -> speedup over the HW baseline}.
    variants: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def mean(self, variant: str) -> float:
        per = self.variants[variant]
        return arithmetic_mean(list(per.values()))

    def render(self) -> str:
        names = sorted(
            {w for per in self.variants.values() for w in per}
        )
        headers = ["variant"] + names + ["mean"]
        rows = []
        for variant, per in self.variants.items():
            row = [variant]
            row.extend(
                speedup_percent(per[name]) if name in per else ""
                for name in names
            )
            row.append(speedup_percent(self.mean(variant)))
            rows.append(row)
        return render_table(headers, rows, title=self.title)


def _engine(engine: Optional[ExperimentEngine]) -> ExperimentEngine:
    return engine if engine is not None else ExperimentEngine()


def _baselines(
    engine: ExperimentEngine,
    names: Sequence[str],
    budget: int,
    warmup: int,
    policy: PrefetchPolicy = PrefetchPolicy.HW_ONLY,
) -> Dict[str, object]:
    """The per-workload baseline every variant's speedup divides by.

    One engine batch: identical baselines across ablations (same
    workload, budget, warmup) are simulated once and served from the
    result cache afterwards — this used to be the sweeps' biggest source
    of duplicated work.
    """
    jobs = [
        make_job(
            name, policy=policy,
            max_instructions=budget, warmup_instructions=warmup,
        )
        for name in names
    ]
    results = engine.run_all(jobs)
    return dict(zip(names, results))


def _variant_grid(
    engine: ExperimentEngine,
    result: AblationResult,
    baselines: Dict[str, object],
    variants: Sequence[str],
    jobs: List[SimJob],
) -> None:
    """Fill ``result.variants`` from a variant-major job list (one job
    per variant x baseline workload, in that order)."""
    names = list(baselines)
    results = engine.run_all(jobs)
    index = 0
    for variant in variants:
        per = {}
        for name in names:
            per[name] = results[index].speedup_over(baselines[name])
            index += 1
        result.variants[variant] = per


def ablation_initial_distance(
    workloads: Sequence[str],
    max_instructions: int,
    warmup_instructions: int = 200_000,
    engine: Optional[ExperimentEngine] = None,
) -> AblationResult:
    """Paper section 5.3: starting the repair search from the estimated
    distance performs "almost identical" to starting from 1."""
    result = AblationResult(
        title="Ablation: initial distance for the self-repairing search"
    )
    eng = _engine(engine)
    baselines = _baselines(
        eng, workloads, max_instructions, warmup_instructions
    )
    variants = {
        "start at 1 (paper default)": "one",
        "start at estimate (eq. 2)": "estimate",
    }
    jobs = [
        make_job(
            name,
            policy=PrefetchPolicy.SELF_REPAIRING,
            max_instructions=max_instructions,
            warmup_instructions=warmup_instructions,
            initial_distance_mode=mode,
        )
        for mode in variants.values()
        for name in baselines
    ]
    _variant_grid(eng, result, baselines, list(variants), jobs)
    return result


def ablation_grouping(
    workloads: Sequence[str],
    max_instructions: int,
    warmup_instructions: int = 200_000,
    engine: Optional[ExperimentEngine] = None,
) -> AblationResult:
    """Same-object grouping on vs off, with repair active in both.

    BASIC groups nothing but also freezes distances; to isolate grouping
    we would want BASIC + repair, which the policy enum doesn't offer —
    so we report the paper's own proxies: WHOLE_OBJECT (grouped, frozen)
    vs BASIC (ungrouped, frozen), plus SELF_REPAIRING for reference.
    """
    result = AblationResult(
        title="Ablation: same-object grouping under adaptive repair"
    )
    eng = _engine(engine)
    baselines = _baselines(
        eng, workloads, max_instructions, warmup_instructions
    )
    variants = {
        "grouped, frozen (WHOLE_OBJECT)": PrefetchPolicy.WHOLE_OBJECT,
        "grouped + repair (SELF_REPAIRING)": PrefetchPolicy.SELF_REPAIRING,
        "ungrouped, frozen (BASIC)": PrefetchPolicy.BASIC,
    }
    jobs = [
        make_job(
            name, policy=policy,
            max_instructions=max_instructions,
            warmup_instructions=warmup_instructions,
        )
        for policy in variants.values()
        for name in baselines
    ]
    _variant_grid(eng, result, baselines, list(variants), jobs)
    return result


def ablation_confidence_penalty(
    workloads: Sequence[str],
    max_instructions: int,
    penalties: Sequence[int] = (1, 3, 7, 15),
    warmup_instructions: int = 200_000,
    engine: Optional[ExperimentEngine] = None,
) -> AblationResult:
    """The DLT's asymmetric stride-confidence update (-7 in the paper):
    smaller penalties let noisy pointer chains masquerade as strided."""
    result = AblationResult(
        title="Ablation: DLT stride-confidence down-step (paper: -7)"
    )
    eng = _engine(engine)
    baselines = _baselines(
        eng, workloads, max_instructions, warmup_instructions
    )
    jobs = [
        make_job(
            name,
            policy=PrefetchPolicy.SELF_REPAIRING,
            trident=TridentConfig().with_dlt(
                DLTConfig(confidence_down=penalty)
            ),
            max_instructions=max_instructions,
            warmup_instructions=warmup_instructions,
        )
        for penalty in penalties
        for name in baselines
    ]
    _variant_grid(
        eng, result, baselines, [f"-{p}" for p in penalties], jobs
    )
    return result


def ablation_markov(
    workloads: Sequence[str],
    max_instructions: int,
    warmup_instructions: int = 200_000,
    engine: Optional[ExperimentEngine] = None,
) -> AblationResult:
    """The PSB's stride-filtered Markov second level (Sherwood et al.,
    the paper's citation [27]): off in the Table-1 baseline, measured
    here as hardware-only speedup over no prefetching."""
    import dataclasses

    from ..config import MachineConfig, StreamBufferConfig

    result = AblationResult(
        title=(
            "Extension: stride-filtered Markov second level for the "
            "stream buffers (off in the paper's Table-1 baseline)"
        )
    )
    eng = _engine(engine)
    none_runs = _baselines(
        eng, workloads, max_instructions, warmup_instructions,
        policy=PrefetchPolicy.NONE,
    )
    variants = {
        "stride-guided only (paper)": 0,
        "with markov second level": 2048,
    }
    jobs = [
        make_job(
            name,
            policy=PrefetchPolicy.HW_ONLY,
            machine=MachineConfig().with_stream_buffers(
                dataclasses.replace(
                    StreamBufferConfig.paper_8x8(),
                    markov_entries=markov_entries,
                )
            ),
            max_instructions=max_instructions,
            warmup_instructions=warmup_instructions,
        )
        for markov_entries in variants.values()
        for name in none_runs
    ]
    _variant_grid(eng, result, none_runs, list(variants), jobs)
    return result


def ablation_phase_detection(
    workloads: Sequence[str],
    max_instructions: int,
    warmup_instructions: int = 200_000,
    engine: Optional[ExperimentEngine] = None,
) -> AblationResult:
    """The paper's stated future work (section 3.5.2): clear mature flags
    on a working-set/phase change so the prefetcher can re-adapt."""
    result = AblationResult(
        title=(
            "Extension: phase-aware mature clearing "
            "(paper future work, off by default)"
        )
    )
    eng = _engine(engine)
    baselines = _baselines(
        eng, workloads, max_instructions, warmup_instructions
    )
    variants = {
        "phase detection off (paper)": False,
        "phase detection on": True,
    }
    jobs = [
        make_job(
            name,
            policy=PrefetchPolicy.SELF_REPAIRING,
            trident=TridentConfig(phase_detection=enabled),
            max_instructions=max_instructions,
            warmup_instructions=warmup_instructions,
        )
        for enabled in variants.values()
        for name in baselines
    ]
    _variant_grid(eng, result, baselines, list(variants), jobs)
    return result


def ablation_repair_budget(
    workloads: Sequence[str],
    max_instructions: int,
    budgets: Sequence[float] = (0.5, 1.0, 2.0, 4.0),
    warmup_instructions: int = 200_000,
    engine: Optional[ExperimentEngine] = None,
) -> AblationResult:
    """Scale the 2x max-distance repair budget (paper's maturing rule).

    The multiplier is a real config field
    (``TridentConfig.repair_budget_multiplier``) rather than the class
    monkeypatch this sweep once used: a patch would neither reach worker
    processes nor show up in the cache key.
    """
    result = AblationResult(
        title="Ablation: repair budget multiplier (paper: 2x max distance)"
    )
    eng = _engine(engine)
    baselines = _baselines(
        eng, workloads, max_instructions, warmup_instructions
    )
    jobs = [
        make_job(
            name,
            policy=PrefetchPolicy.SELF_REPAIRING,
            trident=TridentConfig().with_repair_budget(multiplier),
            max_instructions=max_instructions,
            warmup_instructions=warmup_instructions,
        )
        for multiplier in budgets
        for name in baselines
    ]
    _variant_grid(
        eng, result, baselines, [f"{m}x" for m in budgets], jobs
    )
    return result
