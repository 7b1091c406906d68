"""One entry per paper table/figure (the per-experiment index of
DESIGN.md).

Each ``fig*`` function runs the simulations for one paper figure and
returns a structured result object with a ``render()`` method printing
paper-style rows.  Budgets are deliberately parameters: the test suite
uses tiny budgets, the benches use ``REPRO_BENCH_INSTRUCTIONS``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, TypeVar

from ..config import (
    DLTConfig,
    MachineConfig,
    PrefetchPolicy,
    SimulationConfig,
    StreamBufferConfig,
    TridentConfig,
)
from ..faults.plan import FaultPlan
from ..obs import Observer, write_chrome_trace
from ..workloads.registry import BENCHMARK_NAMES
from .charts import sparkline
from .engine import (
    ExperimentEngine,
    _error_record,
    make_job,
    run_workload_groups,
)
from .report import (
    arithmetic_mean,
    percent,
    render_errors,
    render_table,
    speedup_percent,
)
from .runner import Simulation, run_simulation

#: Environment knobs for the bench harness.
ENV_INSTRUCTIONS = "REPRO_BENCH_INSTRUCTIONS"
ENV_WARMUP = "REPRO_BENCH_WARMUP"
ENV_WORKLOADS = "REPRO_BENCH_WORKLOADS"

_T = TypeVar("_T")


def run_isolated(
    errors: List[Dict], workload: str, fn: Callable[[], _T]
) -> Optional[_T]:
    """Run one workload's simulations with failure isolation.

    A failing workload no longer aborts the whole figure sweep: the
    exception becomes a record in ``errors`` (rendered under the result
    table) and the caller gets None for that workload.  Transient errors
    — a watchdog wall-time trip under host load, anything flagged
    ``transient`` — earn exactly one retry before being recorded.
    """
    try:
        return fn()
    except Exception as exc:
        if getattr(exc, "transient", False):
            try:
                return fn()
            except Exception as retry_exc:
                errors.append(_error_record(workload, retry_exc, retried=True))
                return None
        errors.append(_error_record(workload, exc, retried=False))
        return None


def _with_errors(table: str, errors: List[Dict]) -> str:
    """Append the rendered error section to a result table."""
    if not errors:
        return table
    return table + "\n\n" + render_errors(errors)


def _engine(engine: Optional[ExperimentEngine]) -> ExperimentEngine:
    """The caller's engine, or a fresh serial one with the default cache."""
    return engine if engine is not None else ExperimentEngine()


def bench_instructions(default: int = 120_000) -> int:
    return int(os.environ.get(ENV_INSTRUCTIONS, default))


def bench_warmup(default: int = 200_000) -> int:
    """Instructions run before measurement begins.

    The paper warms for 5M of 100M instructions; proportionally we warm
    longer because the optimizer's convergence horizon (DLT windows x
    repair steps) is a fixed instruction count, not a fixed fraction.
    """
    return int(os.environ.get(ENV_WARMUP, default))


def bench_workloads(default: Optional[Sequence[str]] = None) -> List[str]:
    raw = os.environ.get(ENV_WORKLOADS)
    if raw:
        return [name.strip() for name in raw.split(",") if name.strip()]
    return list(default if default is not None else BENCHMARK_NAMES)


# ---------------------------------------------------------------------------
# Figure 2 — hardware stream-buffer baselines.
# ---------------------------------------------------------------------------
@dataclass
class Fig2Result:
    rows: List[Dict] = field(default_factory=list)
    errors: List[Dict] = field(default_factory=list)

    @property
    def mean_speedup_4x4(self) -> float:
        return arithmetic_mean([r["speedup_4x4"] for r in self.rows])

    @property
    def mean_speedup_8x8(self) -> float:
        return arithmetic_mean([r["speedup_8x8"] for r in self.rows])

    def render(self) -> str:
        table_rows = [
            (
                r["workload"],
                f"{r['ipc_none']:.3f}",
                f"{r['ipc_4x4']:.3f}",
                f"{r['ipc_8x8']:.3f}",
                speedup_percent(r["speedup_4x4"]),
                speedup_percent(r["speedup_8x8"]),
            )
            for r in self.rows
        ]
        table_rows.append(
            (
                "average",
                "",
                "",
                "",
                speedup_percent(self.mean_speedup_4x4),
                speedup_percent(self.mean_speedup_8x8),
            )
        )
        table = render_table(
            ["benchmark", "IPC none", "IPC 4x4", "IPC 8x8",
             "4x4 speedup", "8x8 speedup"],
            table_rows,
            title=(
                "Figure 2: baseline performance with hardware stream "
                "buffers (paper: +35% for 4x4, +40% for 8x8)"
            ),
        )
        return _with_errors(table, self.errors)


def fig2_hw_baseline(
    workloads: Optional[Sequence[str]] = None,
    max_instructions: Optional[int] = None,
    warmup: Optional[int] = None,
    engine: Optional[ExperimentEngine] = None,
    fast: bool = True,
) -> Fig2Result:
    names = bench_workloads(workloads)
    budget = max_instructions or bench_instructions()
    warm = bench_warmup() if warmup is None else warmup
    result = Fig2Result()
    machine_4x4 = MachineConfig().with_stream_buffers(
        StreamBufferConfig.paper_4x4()
    )
    jobs = []
    for name in names:
        jobs.append(make_job(
            name, policy=PrefetchPolicy.NONE,
            max_instructions=budget, warmup_instructions=warm, fast=fast,
        ))
        jobs.append(make_job(
            name, policy=PrefetchPolicy.HW_ONLY, machine=machine_4x4,
            max_instructions=budget, warmup_instructions=warm, fast=fast,
        ))
        jobs.append(make_job(
            name, policy=PrefetchPolicy.HW_ONLY,
            max_instructions=budget, warmup_instructions=warm, fast=fast,
        ))
    grouped = run_workload_groups(_engine(engine), jobs, result.errors)
    for name in names:
        if name not in grouped:
            continue
        none, hw44, hw88 = grouped[name]
        result.rows.append({
            "workload": name,
            "ipc_none": none.ipc,
            "ipc_4x4": hw44.ipc,
            "ipc_8x8": hw88.ipc,
            "speedup_4x4": hw44.speedup_over(none),
            "speedup_8x8": hw88.speedup_over(none),
        })
    return result


# ---------------------------------------------------------------------------
# Figure 3 / section 5.1 — optimizer overhead and helper activity.
# ---------------------------------------------------------------------------
@dataclass
class Fig3Result:
    rows: List[Dict] = field(default_factory=list)
    errors: List[Dict] = field(default_factory=list)

    @property
    def mean_helper_active(self) -> float:
        return arithmetic_mean([r["helper_active"] for r in self.rows])

    @property
    def mean_overhead(self) -> float:
        return arithmetic_mean([r["overhead"] for r in self.rows])

    def render(self) -> str:
        table_rows = [
            (
                r["workload"],
                percent(r["helper_active"], 2),
                percent(r["overhead"], 2),
            )
            for r in self.rows
        ]
        table_rows.append(
            (
                "average",
                percent(self.mean_helper_active, 2),
                percent(self.mean_overhead, 2),
            )
        )
        table = render_table(
            ["benchmark", "helper active", "overhead-only slowdown"],
            table_rows,
            title=(
                "Figure 3 / section 5.1: helper-thread activity (paper: "
                "2.2% avg) and optimize-but-don't-link cost (paper: 0.6%)"
            ),
        )
        return _with_errors(table, self.errors)


def fig3_overhead(
    workloads: Optional[Sequence[str]] = None,
    max_instructions: Optional[int] = None,
    warmup: Optional[int] = None,
    engine: Optional[ExperimentEngine] = None,
    fast: bool = True,
) -> Fig3Result:
    names = bench_workloads(workloads)
    budget = max_instructions or bench_instructions()
    warm = bench_warmup() if warmup is None else warmup
    result = Fig3Result()
    jobs = []
    for name in names:
        jobs.append(make_job(
            name, policy=PrefetchPolicy.HW_ONLY,
            max_instructions=budget, warmup_instructions=warm, fast=fast,
        ))
        jobs.append(make_job(
            name, policy=PrefetchPolicy.SELF_REPAIRING,
            max_instructions=budget, warmup_instructions=warm, fast=fast,
            overhead_only=True,
        ))
        jobs.append(make_job(
            name, policy=PrefetchPolicy.SELF_REPAIRING,
            max_instructions=budget, warmup_instructions=warm, fast=fast,
        ))
    grouped = run_workload_groups(_engine(engine), jobs, result.errors)
    for name in names:
        if name not in grouped:
            continue
        base, overhead_run, full = grouped[name]
        result.rows.append({
            "workload": name,
            "helper_active": full.helper_active_fraction,
            "overhead": max(0.0, base.ipc / overhead_run.ipc - 1.0),
        })
    return result


# ---------------------------------------------------------------------------
# Figure 4 — load-miss coverage by hot traces and the prefetcher.
# ---------------------------------------------------------------------------
@dataclass
class Fig4Result:
    rows: List[Dict] = field(default_factory=list)
    errors: List[Dict] = field(default_factory=list)

    @property
    def mean_trace_coverage(self) -> float:
        return arithmetic_mean([r["trace_coverage"] for r in self.rows])

    @property
    def mean_prefetch_coverage(self) -> float:
        return arithmetic_mean([r["prefetch_coverage"] for r in self.rows])

    def render(self) -> str:
        table_rows = [
            (
                r["workload"],
                percent(r["trace_coverage"]),
                percent(r["prefetch_coverage"]),
            )
            for r in self.rows
        ]
        table_rows.append(
            (
                "average",
                percent(self.mean_trace_coverage),
                percent(self.mean_prefetch_coverage),
            )
        )
        table = render_table(
            ["benchmark", "misses in hot traces", "misses prefetchable"],
            table_rows,
            title=(
                "Figure 4: load-miss coverage (paper: >85% in traces, "
                "~55% prefetchable; dot/parser low; gap low-coverage/"
                "high-prefetchable)"
            ),
        )
        return _with_errors(table, self.errors)


def fig4_coverage(
    workloads: Optional[Sequence[str]] = None,
    max_instructions: Optional[int] = None,
    warmup: Optional[int] = None,
    engine: Optional[ExperimentEngine] = None,
    fast: bool = True,
) -> Fig4Result:
    names = bench_workloads(workloads)
    budget = max_instructions or bench_instructions()
    warm = bench_warmup() if warmup is None else warmup
    result = Fig4Result()
    # Figure 4 asks which misses *occur while executing hot traces* and
    # which of those the prefetcher targets.  A successful prefetch
    # erases the miss it covered, so the miss profile comes from a
    # monitoring-only run (traces linked, nothing inserted) and the
    # targeted-PC set from the self-repairing run.
    jobs = []
    for name in names:
        jobs.append(make_job(
            name, policy=PrefetchPolicy.TRACE_ONLY,
            max_instructions=budget, warmup_instructions=warm, fast=fast,
        ))
        jobs.append(make_job(
            name, policy=PrefetchPolicy.SELF_REPAIRING,
            max_instructions=budget, warmup_instructions=warm, fast=fast,
        ))
    grouped = run_workload_groups(_engine(engine), jobs, result.errors)
    for name in names:
        if name not in grouped:
            continue
        baseline, run = grouped[name]
        profile = baseline.miss_profile()
        total = sum(profile.values())
        targeted = sum(
            count
            for pc, count in profile.items()
            if pc in run.targeted_load_pcs
        )
        result.rows.append({
            "workload": name,
            "trace_coverage": baseline.miss_trace_coverage,
            "prefetch_coverage": targeted / total if total else 0.0,
        })
    return result


# ---------------------------------------------------------------------------
# Figure 5 — the headline comparison: basic / whole-object / self-repairing.
# ---------------------------------------------------------------------------
@dataclass
class Fig5Result:
    rows: List[Dict] = field(default_factory=list)
    errors: List[Dict] = field(default_factory=list)

    def mean_speedup(self, key: str) -> float:
        return arithmetic_mean([r[key] for r in self.rows])

    def render(self) -> str:
        table_rows = [
            (
                r["workload"],
                speedup_percent(r["basic"]),
                speedup_percent(r["whole_object"]),
                speedup_percent(r["self_repairing"]),
            )
            for r in self.rows
        ]
        table_rows.append(
            (
                "average",
                speedup_percent(self.mean_speedup("basic")),
                speedup_percent(self.mean_speedup("whole_object")),
                speedup_percent(self.mean_speedup("self_repairing")),
            )
        )
        from .charts import grouped_bar_chart

        table = render_table(
            ["benchmark", "basic", "whole object", "self-repairing"],
            table_rows,
            title=(
                "Figure 5: software prefetching speedup over the 8x8 "
                "hardware baseline (paper: +11% basic, +23% "
                "self-repairing)"
            ),
        )
        chart = grouped_bar_chart(
            "speedup over hardware baseline",
            [
                (
                    r["workload"],
                    {
                        "basic": r["basic"],
                        "self-repairing": r["self_repairing"],
                    },
                )
                for r in self.rows
            ],
            series=["basic", "self-repairing"],
        )
        return _with_errors(table + "\n\n" + chart, self.errors)


def fig5_policies(
    workloads: Optional[Sequence[str]] = None,
    max_instructions: Optional[int] = None,
    warmup: Optional[int] = None,
    engine: Optional[ExperimentEngine] = None,
    fast: bool = True,
) -> Fig5Result:
    names = bench_workloads(workloads)
    budget = max_instructions or bench_instructions()
    warm = bench_warmup() if warmup is None else warmup
    result = Fig5Result()
    policies = (
        ("basic", PrefetchPolicy.BASIC),
        ("whole_object", PrefetchPolicy.WHOLE_OBJECT),
        ("self_repairing", PrefetchPolicy.SELF_REPAIRING),
    )
    jobs = []
    for name in names:
        jobs.append(make_job(
            name, policy=PrefetchPolicy.HW_ONLY,
            max_instructions=budget, warmup_instructions=warm, fast=fast,
        ))
        for _, policy in policies:
            jobs.append(make_job(
                name, policy=policy,
                max_instructions=budget, warmup_instructions=warm, fast=fast,
            ))
    grouped = run_workload_groups(_engine(engine), jobs, result.errors)
    for name in names:
        if name not in grouped:
            continue
        baseline, *runs = grouped[name]
        row = {"workload": name}
        for (key, _), run in zip(policies, runs):
            row[key] = run.speedup_over(baseline)
        result.rows.append(row)
    return result


# ---------------------------------------------------------------------------
# Figure 6 — dynamic-load outcome breakdown.
# ---------------------------------------------------------------------------
@dataclass
class Fig6Result:
    rows: List[Dict] = field(default_factory=list)
    errors: List[Dict] = field(default_factory=list)

    def render(self) -> str:
        table_rows = [
            (
                r["workload"],
                percent(r["hit"]),
                percent(r["hit_prefetched"]),
                percent(r["partial_hit"]),
                percent(r["miss"]),
                percent(r["miss_due_to_prefetch"], 2),
            )
            for r in self.rows
        ]
        table = render_table(
            ["benchmark", "hits", "hit-prefetched", "partial hits",
             "misses", "miss-due-to-prefetch"],
            table_rows,
            title=(
                "Figure 6: breakdown of all dynamic loads (paper: partial "
                "hits and prefetch-caused misses are both rare)"
            ),
        )
        return _with_errors(table, self.errors)


def fig6_breakdown(
    workloads: Optional[Sequence[str]] = None,
    max_instructions: Optional[int] = None,
    warmup: Optional[int] = None,
    engine: Optional[ExperimentEngine] = None,
    fast: bool = True,
) -> Fig6Result:
    names = bench_workloads(workloads)
    budget = max_instructions or bench_instructions()
    warm = bench_warmup() if warmup is None else warmup
    result = Fig6Result()
    jobs = [
        make_job(
            name, policy=PrefetchPolicy.SELF_REPAIRING,
            max_instructions=budget, warmup_instructions=warm, fast=fast,
        )
        for name in names
    ]
    grouped = run_workload_groups(_engine(engine), jobs, result.errors)
    for name in names:
        if name not in grouped:
            continue
        (run,) = grouped[name]
        row = {"workload": name}
        row.update(run.breakdown())
        result.rows.append(row)
    return result


# ---------------------------------------------------------------------------
# Figure 7 — monitoring-window / miss-threshold sensitivity.
# ---------------------------------------------------------------------------
@dataclass
class Fig7Result:
    #: (window, miss-rate) -> mean speedup over the HW baseline.
    grid: Dict = field(default_factory=dict)
    windows: List[int] = field(default_factory=list)
    rates: List[float] = field(default_factory=list)
    errors: List[Dict] = field(default_factory=list)

    def render(self) -> str:
        headers = ["window \\ rate"] + [percent(r, 0) for r in self.rates]
        table_rows = []
        for window in self.windows:
            row = [str(window)]
            for rate in self.rates:
                row.append(speedup_percent(self.grid[(window, rate)]))
            table_rows.append(row)
        table = render_table(
            headers,
            table_rows,
            title=(
                "Figure 7: mean self-repairing speedup vs monitoring "
                "window and miss-rate threshold (paper: 3% at 256 best)"
            ),
        )
        return _with_errors(table, self.errors)


def _hw_baselines(
    engine: ExperimentEngine,
    names: Sequence[str],
    budget: int,
    warm: int,
    errors: List[Dict],
    fast: bool = True,
) -> Dict[str, "object"]:
    """Shared HW_ONLY baselines, one engine batch (cache-deduplicated
    across every figure and sweep that asks for the same budget)."""
    jobs = [
        make_job(
            name, policy=PrefetchPolicy.HW_ONLY,
            max_instructions=budget, warmup_instructions=warm, fast=fast,
        )
        for name in names
    ]
    outcomes = engine.run(jobs)
    baselines = {}
    for job, outcome in zip(jobs, outcomes):
        if outcome.ok:
            baselines[job.workload] = outcome.result
        else:
            errors.append(outcome.error)
    return baselines


def fig7_threshold_sweep(
    workloads: Optional[Sequence[str]] = None,
    max_instructions: Optional[int] = None,
    warmup: Optional[int] = None,
    windows: Sequence[int] = (128, 256, 512),
    rates: Sequence[float] = (0.01, 0.03, 0.06, 0.12),
    engine: Optional[ExperimentEngine] = None,
    fast: bool = True,
) -> Fig7Result:
    names = bench_workloads(workloads)
    budget = max_instructions or bench_instructions()
    warm = bench_warmup() if warmup is None else warmup
    result = Fig7Result(windows=list(windows), rates=list(rates))
    eng = _engine(engine)
    baselines = _hw_baselines(eng, names, budget, warm, result.errors, fast=fast)
    cells = [(window, rate) for window in windows for rate in rates]
    jobs = []
    for window, rate in cells:
        dlt = DLTConfig().with_window(window).with_miss_rate(rate)
        for name in baselines:
            jobs.append(make_job(
                name,
                policy=PrefetchPolicy.SELF_REPAIRING,
                trident=TridentConfig().with_dlt(dlt),
                max_instructions=budget, warmup_instructions=warm, fast=fast,
            ))
    outcomes = eng.run(jobs)
    # A workload failing mid-sweep is recorded once and excluded from
    # that cell and the rest of the grid (same row/column semantics the
    # serial sweep had; parallel execution just wastes the dropped work).
    failed: set = set()
    index = 0
    for window, rate in cells:
        speedups = []
        for name in baselines:
            outcome = outcomes[index]
            index += 1
            if name in failed:
                continue
            if not outcome.ok:
                result.errors.append(outcome.error)
                failed.add(name)
                continue
            speedups.append(outcome.result.speedup_over(baselines[name]))
        result.grid[(window, rate)] = arithmetic_mean(speedups)
    return result


# ---------------------------------------------------------------------------
# Figure 8 — DLT-size sensitivity.
# ---------------------------------------------------------------------------
@dataclass
class Fig8Result:
    #: size -> {workload -> speedup}, plus "mean".
    by_size: Dict[int, Dict[str, float]] = field(default_factory=dict)
    sizes: List[int] = field(default_factory=list)
    spotlight: List[str] = field(default_factory=list)
    errors: List[Dict] = field(default_factory=list)

    def render(self) -> str:
        headers = ["DLT entries", "mean"] + list(self.spotlight)
        table_rows = []
        for size in self.sizes:
            row = [str(size), speedup_percent(self.by_size[size]["mean"])]
            for name in self.spotlight:
                value = self.by_size[size].get(name)
                row.append("" if value is None else speedup_percent(value))
            table_rows.append(row)
        table = render_table(
            headers,
            table_rows,
            title=(
                "Figure 8: self-repairing speedup vs DLT size (paper: "
                "mostly flat; dot and parser want bigger tables)"
            ),
        )
        return _with_errors(table, self.errors)


def fig8_dlt_sweep(
    workloads: Optional[Sequence[str]] = None,
    max_instructions: Optional[int] = None,
    warmup: Optional[int] = None,
    sizes: Sequence[int] = (128, 256, 512, 1024, 2048),
    spotlight: Sequence[str] = ("dot", "parser"),
    engine: Optional[ExperimentEngine] = None,
    fast: bool = True,
) -> Fig8Result:
    names = bench_workloads(workloads)
    budget = max_instructions or bench_instructions()
    warm = bench_warmup() if warmup is None else warmup
    result = Fig8Result(
        sizes=list(sizes),
        spotlight=[s for s in spotlight if s in names],
    )
    eng = _engine(engine)
    baselines = _hw_baselines(eng, names, budget, warm, result.errors, fast=fast)
    jobs = []
    for size in sizes:
        dlt = DLTConfig().with_entries(size)
        for name in baselines:
            jobs.append(make_job(
                name,
                policy=PrefetchPolicy.SELF_REPAIRING,
                trident=TridentConfig().with_dlt(dlt),
                max_instructions=budget, warmup_instructions=warm, fast=fast,
            ))
    outcomes = eng.run(jobs)
    failed: set = set()
    index = 0
    for size in sizes:
        per: Dict[str, float] = {}
        for name in baselines:
            outcome = outcomes[index]
            index += 1
            if name in failed:
                continue
            if not outcome.ok:
                result.errors.append(outcome.error)
                failed.add(name)
                continue
            per[name] = outcome.result.speedup_over(baselines[name])
        per["mean"] = arithmetic_mean(
            [v for k, v in per.items() if k != "mean"]
        )
        result.by_size[size] = per
    return result


# ---------------------------------------------------------------------------
# Figure 9 — software vs hardware prefetching, both over no prefetching.
# ---------------------------------------------------------------------------
@dataclass
class Fig9Result:
    rows: List[Dict] = field(default_factory=list)
    errors: List[Dict] = field(default_factory=list)

    def mean_speedup(self, key: str) -> float:
        return arithmetic_mean([r[key] for r in self.rows])

    def render(self) -> str:
        table_rows = [
            (
                r["workload"],
                speedup_percent(r["hw_only"]),
                speedup_percent(r["sw_only"]),
                speedup_percent(r["combined"]),
            )
            for r in self.rows
        ]
        table_rows.append(
            (
                "average",
                speedup_percent(self.mean_speedup("hw_only")),
                speedup_percent(self.mean_speedup("sw_only")),
                speedup_percent(self.mean_speedup("combined")),
            )
        )
        from .charts import grouped_bar_chart

        table = render_table(
            ["benchmark", "HW 8x8", "SW self-repairing", "combined"],
            table_rows,
            title=(
                "Figure 9: prefetching speedup over no prefetching "
                "(paper: SW beats HW by ~11% on average; dot/equake/swim "
                "favour HW)"
            ),
        )
        chart = grouped_bar_chart(
            "speedup over no prefetching",
            [
                (
                    r["workload"],
                    {"hw": r["hw_only"], "sw": r["sw_only"]},
                )
                for r in self.rows
            ],
            series=["hw", "sw"],
        )
        return _with_errors(table + "\n\n" + chart, self.errors)


def fig9_sw_vs_hw(
    workloads: Optional[Sequence[str]] = None,
    max_instructions: Optional[int] = None,
    warmup: Optional[int] = None,
    engine: Optional[ExperimentEngine] = None,
    fast: bool = True,
) -> Fig9Result:
    names = bench_workloads(workloads)
    budget = max_instructions or bench_instructions()
    warm = bench_warmup() if warmup is None else warmup
    result = Fig9Result()
    jobs = []
    for name in names:
        for policy in (
            PrefetchPolicy.NONE,
            PrefetchPolicy.HW_ONLY,
            PrefetchPolicy.SW_ONLY,
            PrefetchPolicy.SELF_REPAIRING,
        ):
            jobs.append(make_job(
                name, policy=policy,
                max_instructions=budget, warmup_instructions=warm, fast=fast,
            ))
    grouped = run_workload_groups(_engine(engine), jobs, result.errors)
    for name in names:
        if name not in grouped:
            continue
        none, hw, sw, combined = grouped[name]
        result.rows.append({
            "workload": name,
            "hw_only": hw.speedup_over(none),
            "sw_only": sw.speedup_over(none),
            "combined": combined.speedup_over(none),
        })
    return result


# ---------------------------------------------------------------------------
# Section 5.4 closing note — spend the DLT bits on a bigger L1 instead.
# ---------------------------------------------------------------------------
@dataclass
class CacheEquivResult:
    rows: List[Dict] = field(default_factory=list)
    errors: List[Dict] = field(default_factory=list)

    @property
    def mean_speedup(self) -> float:
        return arithmetic_mean([r["speedup"] for r in self.rows])

    def render(self) -> str:
        table_rows = [
            (r["workload"], speedup_percent(r["speedup"]))
            for r in self.rows
        ]
        table_rows.append(("average", speedup_percent(self.mean_speedup)))
        table = render_table(
            ["benchmark", "bigger-L1 speedup"],
            table_rows,
            title=(
                "Section 5.4: DLT+watch-table bits spent on L1 capacity "
                "instead (paper: merely +0.8%)"
            ),
        )
        return _with_errors(table, self.errors)


def cache_equivalent_area(
    workloads: Optional[Sequence[str]] = None,
    max_instructions: Optional[int] = None,
    warmup: Optional[int] = None,
    engine: Optional[ExperimentEngine] = None,
    fast: bool = True,
) -> CacheEquivResult:
    """Enlarge the L1 by the monitoring structures' storage (~24 KB: 1024
    DLT entries x ~22 bytes + 256 watch entries) and measure the gain."""
    names = bench_workloads(workloads)
    budget = max_instructions or bench_instructions()
    warm = bench_warmup() if warmup is None else warmup
    result = CacheEquivResult()
    bigger = MachineConfig().with_l1_size(88 * 1024)
    jobs = []
    for name in names:
        jobs.append(make_job(
            name, policy=PrefetchPolicy.HW_ONLY,
            max_instructions=budget, warmup_instructions=warm, fast=fast,
        ))
        jobs.append(make_job(
            name, policy=PrefetchPolicy.HW_ONLY, machine=bigger,
            max_instructions=budget, warmup_instructions=warm, fast=fast,
        ))
    grouped = run_workload_groups(_engine(engine), jobs, result.errors)
    for name in names:
        if name not in grouped:
            continue
        base, big = grouped[name]
        result.rows.append(
            {"workload": name, "speedup": big.speedup_over(base)}
        )
    return result


# ---------------------------------------------------------------------------
# Resilience — recovery after an injected DRAM latency phase shift.
# ---------------------------------------------------------------------------
@dataclass
class ResilienceResult:
    """Windows-to-reconverge and IPC loss after a mid-run fault.

    Halfway through the measured budget a permanent DRAM latency increase
    is injected (a memory-system phase shift).  The self-repairing policy
    — with the section-3.5.2 phase detector clearing mature flags — should
    resume repairing and climb back; the basic policy tuned once and
    cannot.
    """

    #: Measured chunks per run; the fault lands at the halfway boundary.
    chunks: int = 8
    extra_cycles: int = 250
    rows: List[Dict] = field(default_factory=list)
    errors: List[Dict] = field(default_factory=list)

    def mean_recovery(self, key: str) -> float:
        return arithmetic_mean([r[key]["recovery"] for r in self.rows])

    def render(self) -> str:
        table_rows = []
        for r in self.rows:
            for key, label in (
                ("basic", "basic"),
                ("self_repairing", "self-repairing"),
            ):
                m = r[key]
                reconverge = m["windows_to_reconverge"]
                table_rows.append(
                    (
                        r["workload"],
                        label,
                        f"{m['pre_ipc']:.3f}",
                        f"{m['dip_ipc']:.3f}",
                        f"{m['final_ipc']:.3f}",
                        f"{m['recovery']:.3f}x",
                        str(m["repairs_after"]),
                        "-" if reconverge is None else str(reconverge),
                    )
                )
        table_rows.append(
            (
                "average",
                "basic",
                "", "", "",
                f"{self.mean_recovery('basic'):.3f}x",
                "", "",
            )
        )
        table_rows.append(
            (
                "average",
                "self-repairing",
                "", "", "",
                f"{self.mean_recovery('self_repairing'):.3f}x",
                "", "",
            )
        )
        table = render_table(
            ["benchmark", "policy", "pre IPC", "dip IPC", "final IPC",
             "recovery", "repairs after", "reconverged by"],
            table_rows,
            title=(
                "Resilience: +%d-cycle DRAM phase shift at mid-run "
                "(recovery = final IPC / first post-fault chunk IPC; "
                "section 3.5.2's repair budget in action)"
                % self.extra_cycles
            ),
        )
        curves: List[str] = []
        for r in self.rows:
            for key, label in (
                ("basic", "basic"),
                ("self_repairing", "self-repairing"),
            ):
                ipcs = [w["ipc"] for w in r[key].get("windows", [])]
                if not ipcs:
                    continue
                curves.append(
                    f"{r['workload']:>10s} {label:<15s} "
                    f"ipc/window |{sparkline(ipcs)}| "
                    f"{min(ipcs):.3f}..{max(ipcs):.3f}"
                )
        if curves:
            head = "windowed-IPC recovery curves (fault at mid-window)"
            table = "\n".join([table, "", head, "-" * len(head)] + curves)
        return _with_errors(table, self.errors)


def _resilience_one_policy(
    name: str,
    policy: PrefetchPolicy,
    budget: int,
    warm: int,
    chunks: int,
    extra_cycles: int,
    seed: int,
    trace_out: Optional[str] = None,
    fast: bool = True,
) -> Dict:
    """Run one workload/policy pair sampled in IPC windows around an
    injected permanent DRAM latency increase at the halfway boundary.

    The windowing rides on the observability layer's interval sampler
    (one window per chunk); with ``trace_out`` set the run's full event
    stream is exported as Perfetto-loadable Chrome trace JSON — the
    fault, the renewed repairs, and the windowed-IPC counter track in
    one timeline.
    """
    chunk = max(1, budget // chunks)
    fault_at = warm + chunk * (chunks // 2)
    plan = FaultPlan.latency_phase_shift(
        at_instruction=fault_at, extra_cycles=extra_cycles, seed=seed
    )
    config = SimulationConfig(
        policy=policy,
        trident=TridentConfig(phase_detection=True),
        max_instructions=chunk * chunks,
        warmup_instructions=warm, fast=fast,
        seed=seed,
    )
    obs = Observer(sample_interval=chunk)
    sim = Simulation(name, config, fault_plan=plan, observer=obs)
    result = sim.run()
    if trace_out is not None:
        write_chrome_trace(
            obs.events(),
            trace_out,
            metadata={"workload": name, "policy": policy.value},
        )
    return _resilience_metrics(result.samples, chunks)


def _resilience_metrics(samples, chunks: int) -> Dict:
    """Window math shared by the engine and trace-export paths: IPC dip,
    recovery ratio, and reconvergence point around the mid-run fault."""
    windows: List[Dict] = [
        {"ipc": s["ipc"], "repairs": s["repairs"]} for s in samples
    ]
    half = chunks // 2
    pre, post = windows[:half], windows[half:]
    if not post:
        # The workload halted before the fault boundary (tiny budgets):
        # report flat windows rather than crashing the sweep.
        post = pre[-1:] or [{"ipc": 0.0, "repairs": 0}]
    pre_ipc = arithmetic_mean([w["ipc"] for w in pre])
    dip_ipc = post[0]["ipc"]
    final_ipc = post[-1]["ipc"]
    reconverge = None
    for i, w in enumerate(post):
        if w["repairs"] > 0:
            reconverge = i + 1
    return {
        "windows": windows,
        "pre_ipc": pre_ipc,
        "dip_ipc": dip_ipc,
        "final_ipc": final_ipc,
        "recovery": final_ipc / dip_ipc if dip_ipc else 0.0,
        "repairs_before": sum(w["repairs"] for w in pre),
        "repairs_after": sum(w["repairs"] for w in post),
        "windows_to_reconverge": reconverge,
    }


def _suffixed_path(base: str, suffix: str) -> str:
    root, ext = os.path.splitext(base)
    return f"{root}.{suffix}{ext or '.json'}"


def resilience(
    workloads: Optional[Sequence[str]] = None,
    max_instructions: Optional[int] = None,
    warmup: Optional[int] = None,
    chunks: int = 8,
    extra_cycles: int = 250,
    seed: int = 1,
    trace_out: Optional[str] = None,
    engine: Optional[ExperimentEngine] = None,
    fast: bool = True,
) -> ResilienceResult:
    """Chaos-test the self-repair loop: inject a permanent DRAM latency
    increase mid-run and compare how BASIC and SELF_REPAIRING reconverge.

    Both policies run with phase detection enabled so mature records are
    re-opened after the shift; only the self-repairing policy is allowed
    to re-tune distances, mirroring the paper's static-vs-repairing
    comparison under a changed memory system.

    With ``trace_out`` set the runs happen in-process (the Chrome trace
    export needs the live observer's event ring); otherwise the jobs go
    through the engine, with ``sample_interval`` carried in the job spec
    so the windowed-IPC samples survive caching.
    """
    names = bench_workloads(workloads)
    budget = max_instructions or bench_instructions()
    warm = bench_warmup() if warmup is None else warmup
    result = ResilienceResult(chunks=chunks, extra_cycles=extra_cycles)
    if trace_out is None:
        chunk = max(1, budget // chunks)
        fault_at = warm + chunk * (chunks // 2)
        plan = FaultPlan.latency_phase_shift(
            at_instruction=fault_at, extra_cycles=extra_cycles, seed=seed
        )
        policies = (
            ("basic", PrefetchPolicy.BASIC),
            ("self_repairing", PrefetchPolicy.SELF_REPAIRING),
        )
        jobs = [
            make_job(
                name, policy=policy,
                trident=TridentConfig(phase_detection=True),
                max_instructions=chunk * chunks,
                warmup_instructions=warm, fast=fast,
                seed=seed,
                fault_plan=plan,
                sample_interval=chunk,
            )
            for name in names
            for _key, policy in policies
        ]
        grouped = run_workload_groups(_engine(engine), jobs, result.errors)
        for name in names:
            if name not in grouped:
                continue
            row: Dict = {"workload": name}
            for (key, _policy), run in zip(policies, grouped[name]):
                row[key] = _resilience_metrics(run.samples, chunks)
            result.rows.append(row)
        return result
    for name in names:
        def one_workload(name: str = name) -> Dict:
            row = {"workload": name}
            for key, policy in (
                ("basic", PrefetchPolicy.BASIC),
                ("self_repairing", PrefetchPolicy.SELF_REPAIRING),
            ):
                # Only the self-repairing run is worth a trace export
                # (it is the one whose renewed repairs the timeline
                # shows); one file per workload.
                out = None
                if trace_out is not None and key == "self_repairing":
                    out = (
                        trace_out
                        if len(names) == 1
                        else _suffixed_path(trace_out, name)
                    )
                row[key] = _resilience_one_policy(
                    name, policy, budget, warm, chunks, extra_cycles, seed,
                    trace_out=out, fast=fast,
                )
            return row

        row = run_isolated(result.errors, name, one_workload)
        if row is not None:
            result.rows.append(row)
    return result


# ---------------------------------------------------------------------------
# Budget-scaling curve — the incremental-simulation showcase.
# ---------------------------------------------------------------------------
@dataclass
class ScalingResult:
    """Speedup convergence over ascending instruction budgets.

    The paper's headline numbers come from one long run per cell; this
    sweep shows *how* the self-repairing policy's advantage develops as
    the measured budget grows — the optimizer links traces, inserts
    prefetches, and repairs distances over time, so short budgets
    understate it.  The sweep is also the checkpoint subsystem's natural
    workload: every (workload, policy) column is one resume chain, and
    with a checkpoint store attached the engine pays for the longest
    budget plus capture overhead instead of the sum of all budgets.
    """

    budgets: List[int] = field(default_factory=list)
    rows: List[Dict] = field(default_factory=list)
    errors: List[Dict] = field(default_factory=list)

    def render(self) -> str:
        table_rows = []
        for r in self.rows:
            speedups = r["speedups"]
            table_rows.append(
                (
                    r["workload"],
                    *(speedup_percent(s) for s in speedups),
                    sparkline([max(0.0, s - 1.0) for s in speedups]),
                )
            )
        if self.rows:
            means = [
                arithmetic_mean([r["speedups"][i] for r in self.rows])
                for i in range(len(self.budgets))
            ]
            table_rows.append(
                (
                    "average",
                    *(speedup_percent(s) for s in means),
                    sparkline([max(0.0, s - 1.0) for s in means]),
                )
            )
        table = render_table(
            ["benchmark"]
            + [f"{budget:,}" for budget in self.budgets]
            + ["trend"],
            table_rows,
            title=(
                "Budget scaling: self-repairing speedup over HW_ONLY at "
                "ascending measured budgets (one checkpoint chain per "
                "column pair)"
            ),
        )
        return _with_errors(table, self.errors)


def scaling_curve(
    workloads: Optional[Sequence[str]] = None,
    max_instructions: Optional[int] = None,
    warmup: Optional[int] = None,
    engine: Optional[ExperimentEngine] = None,
    fast: bool = True,
    steps: int = 3,
) -> ScalingResult:
    """Self-repairing vs HW_ONLY speedup at ``steps`` ascending budgets.

    Budgets are ``max_instructions/steps * (1..steps)``; with the
    engine's checkpoint store enabled (the default), each budget resumes
    from the previous one's end snapshot.
    """
    names = bench_workloads(workloads)
    top = max_instructions or bench_instructions()
    warm = bench_warmup() if warmup is None else warmup
    if steps < 1:
        steps = 1
    budgets = [max(1, top * i // steps) for i in range(1, steps + 1)]
    result = ScalingResult(budgets=budgets)
    jobs = []
    for name in names:
        for policy in (
            PrefetchPolicy.HW_ONLY, PrefetchPolicy.SELF_REPAIRING
        ):
            for budget in budgets:
                jobs.append(make_job(
                    name, policy=policy,
                    max_instructions=budget, warmup_instructions=warm,
                    fast=fast,
                ))
    grouped = run_workload_groups(_engine(engine), jobs, result.errors)
    for name in names:
        if name not in grouped:
            continue
        runs = grouped[name]
        base_runs = runs[:len(budgets)]
        self_runs = runs[len(budgets):]
        result.rows.append({
            "workload": name,
            "speedups": [
                srun.speedup_over(base)
                for base, srun in zip(base_runs, self_runs)
            ],
        })
    return result


# ---------------------------------------------------------------------------
# Policy tournament — every policy (paper + zoo) on every workload.
# ---------------------------------------------------------------------------
def tournament_contenders() -> List[str]:
    """The tournament field, in fixed submission order: the hardware
    baseline first (everyone's denominator), the paper's software
    policies, then every registered zoo engine."""
    from ..hwprefetch.zoo import zoo_names

    return (
        ["hw_only", "basic", "self_repairing"] + list(zoo_names())
    )


def tournament_workloads() -> List[str]:
    """The default arena: all builtin benchmarks plus the curated
    scenario catalog (the four stress scenarios exercise access
    patterns the builtins don't)."""
    from ..scenarios import CATALOG

    return list(BENCHMARK_NAMES) + [
        f"scenario:{name}" for name in CATALOG
    ]


@dataclass
class TournamentResult:
    """Every contender's IPC on every workload, plus the ranking.

    ``rows`` holds one entry per surviving workload with that
    workload's per-contender IPC and speedup over ``hw_only``;
    ``ranking`` is derived, sorted by mean speedup (ties broken by
    name, so the order is deterministic across runs and processes).
    """

    contenders: List[str] = field(default_factory=list)
    rows: List[Dict] = field(default_factory=list)
    errors: List[Dict] = field(default_factory=list)

    @property
    def ranking(self) -> List[Dict]:
        """``[{policy, mean_speedup, wins}]`` best-first."""
        if not self.rows:
            return []
        entries = []
        for label in self.contenders:
            speedups = [r["speedup"][label] for r in self.rows]
            entries.append({
                "policy": label,
                "mean_speedup": arithmetic_mean(speedups),
                "wins": sum(
                    1 for r in self.rows if r["winner"] == label
                ),
            })
        entries.sort(key=lambda e: (-e["mean_speedup"], e["policy"]))
        return entries

    def render(self) -> str:
        from .charts import bar_chart

        matrix_rows = []
        for r in self.rows:
            matrix_rows.append(
                (r["workload"], f"{r['ipc']['hw_only']:.3f}")
                + tuple(
                    speedup_percent(r["speedup"][label])
                    for label in self.contenders[1:]
                )
            )
        matrix = render_table(
            ["workload", "hw_only IPC"]
            + [f"{label}" for label in self.contenders[1:]],
            matrix_rows,
            title=(
                "Policy tournament: speedup over the hw_only stream-"
                "buffer baseline, every policy x every workload"
            ),
        )
        ranking = self.ranking
        ranked = render_table(
            ["rank", "policy", "mean speedup", "wins"],
            [
                (
                    str(position + 1),
                    entry["policy"],
                    speedup_percent(entry["mean_speedup"]),
                    str(entry["wins"]),
                )
                for position, entry in enumerate(ranking)
            ],
            title="Ranking (mean speedup across the arena; ties by name)",
        )
        chart = bar_chart(
            "mean speedup over hw_only",
            [(e["policy"], e["mean_speedup"]) for e in ranking],
            unit="x",
            baseline=1.0,
        )
        return _with_errors(
            matrix + "\n\n" + ranked + "\n\n" + chart, self.errors
        )

    def to_dict(self) -> Dict:
        """JSON payload for ``benchmarks/results/BENCH_tournament.json``."""
        return {
            "contenders": list(self.contenders),
            "workloads": [r["workload"] for r in self.rows],
            "ranking": self.ranking,
            "rows": [
                {
                    "workload": r["workload"],
                    "ipc": dict(r["ipc"]),
                    "speedup": dict(r["speedup"]),
                    "winner": r["winner"],
                }
                for r in self.rows
            ],
            "errors": list(self.errors),
        }


def tournament(
    workloads: Optional[Sequence[str]] = None,
    max_instructions: Optional[int] = None,
    warmup: Optional[int] = None,
    engine: Optional[ExperimentEngine] = None,
    fast: bool = True,
) -> TournamentResult:
    """Run every registered policy against every arena workload.

    Explicit ``workloads`` (or ``REPRO_BENCH_WORKLOADS``) select a
    sub-arena; the default is all 14 builtins plus the 4 catalog
    scenarios.  One engine batch: the shared ``hw_only`` baselines
    dedupe against every other figure through the result cache.
    """
    if workloads is None and not os.environ.get(ENV_WORKLOADS):
        names = tournament_workloads()
    else:
        names = bench_workloads(workloads)
    budget = max_instructions or bench_instructions()
    warm = bench_warmup() if warmup is None else warmup
    contenders = tournament_contenders()
    result = TournamentResult(contenders=contenders)
    jobs = []
    for name in names:
        for label in contenders:
            jobs.append(make_job(
                name, policy=label,
                max_instructions=budget, warmup_instructions=warm,
                fast=fast, group=name,
            ))
    grouped = run_workload_groups(_engine(engine), jobs, result.errors)
    for name in names:
        if name not in grouped:
            continue
        runs = grouped[name]
        baseline = runs[0]
        ipc = {
            label: run.ipc for label, run in zip(contenders, runs)
        }
        speedup = {
            label: run.speedup_over(baseline)
            for label, run in zip(contenders, runs)
        }
        best = max(speedup.values())
        winner = next(
            label for label in contenders if speedup[label] == best
        )
        result.rows.append({
            "workload": name,
            "ipc": ipc,
            "speedup": speedup,
            "winner": winner,
        })
    return result
