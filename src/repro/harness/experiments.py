"""The experiment layer as data: one :class:`Figure` spec per result.

Every result in the paper's evaluation (Figs. 2-9, the section 5.3
initial-distance study, the section 5.4 bigger-L1 note), every ablation,
the resilience study, the budget-scaling curve and the policy tournament
has one shape: a grid of per-workload simulations (the *cells*, baseline
first), reduced to rows and printed as a paper-style table.  A
:class:`Figure` declares that grid; :func:`run_figure` submits it as one
engine batch with per-workload failure isolation and returns a
:class:`FigureResult`, whose ``render()`` is the one table renderer and
whose ``mean(key)`` the claims grade.  Variant grids (Figs. 7 and 8 and
the ablations) keep one row per workload too; their tables are the
transposed :func:`variant_rows` layout, one row per variant.

``FIGURES`` is the single registry read by the CLI's ``figure``
subcommand, the claim grader, ``tools/update_experiments.py`` and the
figure-render fixtures: adding a figure means adding one spec here.
Budgets are parameters (the tests use tiny ones, the benches
``REPRO_BENCH_INSTRUCTIONS``); every sweep axis is a constant of its spec.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
)

from ..config import (
    DLTConfig,
    MachineConfig,
    PrefetchPolicy,
    StreamBufferConfig,
    TridentConfig,
)
from ..faults.plan import FaultPlan
from ..hwprefetch.zoo import zoo_names
from ..obs import Observer, write_chrome_trace
from ..scenarios import CATALOG
from ..workloads.registry import BENCHMARK_NAMES
from .charts import bar_chart, grouped_bar_chart, sparkline
from .engine import (
    ExperimentEngine,
    SimJob,
    _error_record,
    _execute_job,
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
from .runner import SimulationResult

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
# The spec, the runner and the renderer.
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Cell:
    """One simulation per workload: the key the row reducer reads it by,
    its policy (a paper policy or a zoo name), and further ``make_job``
    options, which override the figure's budget where they name it."""

    key: Any
    policy: Union[PrefetchPolicy, str]
    options: Mapping[str, Any] = field(default_factory=dict)

    def job(
        self, workload: str, budget: int, warmup: int, fast: bool
    ) -> SimJob:
        kwargs = dict(
            max_instructions=budget, warmup_instructions=warmup, fast=fast
        )
        kwargs.update(self.options)
        return make_job(workload, policy=self.policy, **kwargs)


@dataclass(frozen=True)
class Column:
    """One table column: a header, the row key it shows (or a function of
    the row), a format, and whether it is averaged: a figure with any
    averaged column ends its table with average rows."""

    header: str
    key: Any
    fmt: Callable[[Any], str] = str
    mean: bool = False

    def text(self, row: Mapping) -> str:
        if callable(self.key):
            return self.fmt(self.key(row))
        return self.fmt(row[self.key]) if self.key in row else ""


@dataclass(frozen=True)
class Figure:
    """One paper figure, ablation or study, as data."""

    #: Registry key, and the file stem under ``benchmarks/results/``.
    name: str
    title: str
    #: ``(budget, warmup) -> cells``: the per-workload grid, baseline first.
    cells: Callable[[int, int], Sequence[Cell]]
    #: ``(workload, {cell key: result}) -> row``, or a list of rows.
    reduce: Callable[[str, Dict[Any, SimulationResult]], Any]
    #: The table's columns, or a function of the result that builds them.
    columns: Union[
        Sequence[Column], Callable[["FigureResult"], Sequence[Column]]
    ]
    #: Average per value of this row key, not over all rows.
    average_by: Optional[str] = None
    #: Text printed under the table: a bar chart, a ranking, curves.
    chart: Optional[Callable[["FigureResult"], str]] = None
    #: Table rows built from the result, when they are not its data rows.
    layout: Optional[Callable[["FigureResult"], List[Dict]]] = None
    #: The arena when the caller names none (default: all 14 benchmarks).
    workloads: Optional[Sequence[str]] = None
    #: The CLI's short name (``figure 5``); the name itself when empty.
    alias: str = ""
    #: Regenerated into EXPERIMENTS.md's reference tables.
    reference: bool = True


@dataclass
class FigureResult:
    """What one :class:`Figure` run produced: rows (one per surviving
    workload unless the reducer returns several) and isolated failures,
    with the arena and the cells that produced them."""

    figure: Figure
    workloads: List[str]
    cells: Tuple[Cell, ...]
    rows: List[Dict] = field(default_factory=list)
    errors: List[Dict] = field(default_factory=list)

    def mean(self, key, **match) -> float:
        """Mean of ``row[key]`` over the rows whose fields equal ``match``."""
        return arithmetic_mean([
            row[key] for row in self.rows
            if all(row[k] == v for k, v in match.items())
        ])

    def render(self) -> str:
        figure = self.figure
        columns = (
            figure.columns(self) if callable(figure.columns)
            else figure.columns
        )
        rows = figure.layout(self) if figure.layout else list(self.rows)
        if rows and any(column.mean for column in columns):
            rows += _average_rows(rows, columns, figure.average_by)
        text = render_table(
            [column.header for column in columns],
            [[column.text(row) for column in columns] for row in rows],
            title=figure.title,
        )
        chart = figure.chart(self) if figure.chart else ""
        if chart:
            text += "\n\n" + chart
        if self.errors:
            text += "\n\n" + render_errors(self.errors)
        return text


def _average_rows(
    rows: List[Dict], columns: Sequence[Column], by: Optional[str]
) -> List[Dict]:
    """The mean of every averaged column, over all rows or per value of
    the row key ``by``; function-keyed columns re-derive from the means."""
    groups = [None] if by is None else list(dict.fromkeys(r[by] for r in rows))
    averages = []
    for group in groups:
        members = [r for r in rows if by is None or r[by] == group]
        average = {columns[0].key: "average"}
        if by is not None:
            average[by] = group
        for column in columns:
            if column.mean:
                average[column.key] = arithmetic_mean(
                    [r[column.key] for r in members]
                )
        averages.append(average)
    return averages


def variant_rows(result: FigureResult) -> List[Dict]:
    """The variant-grid layout: one row per variant (every cell after
    the baseline) with its value on each workload and their mean."""
    return [
        {
            "variant": cell.key,
            **{row["workload"]: row[cell.key] for row in result.rows},
            "mean": result.mean(cell.key),
        }
        for cell in result.cells[1:]
    ]


def _plan(
    figure: Figure,
    workloads: Optional[Sequence[str]],
    max_instructions: Optional[int],
    warmup: Optional[int],
    fast: bool,
) -> Tuple[FigureResult, List[SimJob]]:
    """The empty result and the figure's job grid, workload-major."""
    names = bench_workloads(
        figure.workloads if workloads is None else workloads
    )
    budget = max_instructions or bench_instructions()
    warm = bench_warmup() if warmup is None else warmup
    cells = tuple(figure.cells(budget, warm))
    jobs = [
        cell.job(name, budget, warm, fast)
        for name in names for cell in cells
    ]
    return FigureResult(figure, names, cells), jobs


def _reduce(
    result: FigureResult, grouped: Dict[str, List[SimulationResult]]
) -> FigureResult:
    for name in result.workloads:
        if name in grouped:
            keys = (cell.key for cell in result.cells)
            runs = dict(zip(keys, grouped[name]))
            rows = result.figure.reduce(name, runs)
            result.rows.extend(rows if isinstance(rows, list) else [rows])
    return result


def run_figure(
    figure: Figure,
    workloads: Optional[Sequence[str]] = None,
    max_instructions: Optional[int] = None,
    warmup: Optional[int] = None,
    engine: Optional[ExperimentEngine] = None,
    fast: bool = True,
) -> FigureResult:
    """Run every cell of ``figure`` on every workload as one engine batch.

    A workload with any failed cell is dropped from every row and leaves
    one error record (``run_workload_groups``).  Baselines are ordinary
    content-addressed jobs, so one every figure shares is simulated once.
    """
    result, jobs = _plan(figure, workloads, max_instructions, warmup, fast)
    engine = engine if engine is not None else ExperimentEngine()
    return _reduce(result, run_workload_groups(engine, jobs, result.errors))


# ---------------------------------------------------------------------------
# Shared pieces of the specs.
# ---------------------------------------------------------------------------
HW = PrefetchPolicy.HW_ONLY
SR = PrefetchPolicy.SELF_REPAIRING

#: The arena of the many-configuration sweeps, which keeps them cheap.
SWEEP_WORKLOADS = ("art", "dot", "mcf", "parser", "swim")

BENCHMARK = Column("benchmark", "workload")


def _fixed(*cells: Cell) -> Callable[[int, int], Tuple[Cell, ...]]:
    return lambda budget, warmup: cells


def _ipc(value: float) -> str:
    return f"{value:.3f}"


def _percent2(value: float) -> str:
    return percent(value, 2)


def _speedups(name: str, runs: Dict) -> Dict:
    """Every cell's speedup over the first (baseline) cell."""
    baseline, *variants = runs
    row: Dict = {"workload": name}
    for key in variants:
        row[key] = runs[key].speedup_over(runs[baseline])
    return row


def _speedup_columns(*columns: Tuple[str, str]) -> Tuple[Column, ...]:
    return (BENCHMARK,) + tuple(
        Column(header, key, speedup_percent, mean=True)
        for header, key in columns
    )


def _bars(title: str, series: Dict[str, str]):
    """A grouped bar chart of the rows' ``series`` (label -> row key)."""
    return lambda result: grouped_bar_chart(
        title,
        [
            (r["workload"], {label: r[key] for label, key in series.items()})
            for r in result.rows
        ],
        series=list(series),
    )


# ---------------------------------------------------------------------------
# Figure 2 — hardware stream-buffer baselines.
# ---------------------------------------------------------------------------
def _fig2_row(name: str, runs: Dict) -> Dict:
    none, hw44, hw88 = runs.values()
    return {
        "workload": name,
        "ipc_none": none.ipc,
        "ipc_4x4": hw44.ipc,
        "ipc_8x8": hw88.ipc,
        "speedup_4x4": hw44.speedup_over(none),
        "speedup_8x8": hw88.speedup_over(none),
    }


FIG2 = Figure(
    name="fig2_hw_baseline",
    alias="2",
    title=(
        "Figure 2: baseline performance with hardware stream "
        "buffers (paper: +35% for 4x4, +40% for 8x8)"
    ),
    cells=_fixed(
        Cell("none", PrefetchPolicy.NONE),
        Cell("4x4", HW, {"machine": MachineConfig().with_stream_buffers(
            StreamBufferConfig.paper_4x4()
        )}),
        Cell("8x8", HW),
    ),
    reduce=_fig2_row,
    columns=(
        BENCHMARK,
        Column("IPC none", "ipc_none", _ipc),
        Column("IPC 4x4", "ipc_4x4", _ipc),
        Column("IPC 8x8", "ipc_8x8", _ipc),
        Column("4x4 speedup", "speedup_4x4", speedup_percent, mean=True),
        Column("8x8 speedup", "speedup_8x8", speedup_percent, mean=True),
    ),
)


# ---------------------------------------------------------------------------
# Figure 3 / section 5.1 — optimizer overhead and helper activity.
# ---------------------------------------------------------------------------
def _fig3_row(name: str, runs: Dict) -> Dict:
    base, overhead_run, full = runs.values()
    return {
        "workload": name,
        "helper_active": full.helper_active_fraction,
        "overhead": max(0.0, base.ipc / overhead_run.ipc - 1.0),
    }


FIG3 = Figure(
    name="fig3_overhead",
    alias="3",
    title=(
        "Figure 3 / section 5.1: helper-thread activity (paper: "
        "2.2% avg) and optimize-but-don't-link cost (paper: 0.6%)"
    ),
    cells=_fixed(
        Cell("hw", HW),
        Cell("overhead_only", SR, {"overhead_only": True}),
        Cell("self_repairing", SR),
    ),
    reduce=_fig3_row,
    columns=(
        BENCHMARK,
        Column("helper active", "helper_active", _percent2, mean=True),
        Column("overhead-only slowdown", "overhead", _percent2, mean=True),
    ),
)


# ---------------------------------------------------------------------------
# Figure 4 — load-miss coverage by hot traces and the prefetcher.
# ---------------------------------------------------------------------------
def _fig4_row(name: str, runs: Dict) -> Dict:
    # Figure 4 asks which misses *occur while executing hot traces* and
    # which of those the prefetcher targets.  A successful prefetch
    # erases the miss it covered, so the miss profile comes from a
    # monitoring-only run (traces linked, nothing inserted) and the
    # targeted-PC set from the self-repairing run.
    baseline, run = runs.values()
    profile = baseline.miss_profile()
    total = sum(profile.values())
    targeted = sum(
        count for pc, count in profile.items()
        if pc in run.targeted_load_pcs
    )
    return {
        "workload": name,
        "trace_coverage": baseline.miss_trace_coverage,
        "prefetch_coverage": targeted / total if total else 0.0,
    }


FIG4 = Figure(
    name="fig4_coverage",
    alias="4",
    title=(
        "Figure 4: load-miss coverage (paper: >85% in traces, "
        "~55% prefetchable; dot/parser low; gap low-coverage/"
        "high-prefetchable)"
    ),
    cells=_fixed(
        Cell("trace_only", PrefetchPolicy.TRACE_ONLY),
        Cell("self_repairing", SR),
    ),
    reduce=_fig4_row,
    columns=(
        BENCHMARK,
        Column("misses in hot traces", "trace_coverage", percent, mean=True),
        Column(
            "misses prefetchable", "prefetch_coverage", percent, mean=True
        ),
    ),
)


# ---------------------------------------------------------------------------
# Figure 5 — the headline comparison: basic / whole-object / self-repairing.
# ---------------------------------------------------------------------------
FIG5 = Figure(
    name="fig5_policies",
    alias="5",
    title=(
        "Figure 5: software prefetching speedup over the 8x8 "
        "hardware baseline (paper: +11% basic, +23% "
        "self-repairing)"
    ),
    cells=_fixed(
        Cell("hw_only", HW),
        Cell("basic", PrefetchPolicy.BASIC),
        Cell("whole_object", PrefetchPolicy.WHOLE_OBJECT),
        Cell("self_repairing", SR),
    ),
    reduce=_speedups,
    columns=_speedup_columns(
        ("basic", "basic"),
        ("whole object", "whole_object"),
        ("self-repairing", "self_repairing"),
    ),
    chart=_bars(
        "speedup over hardware baseline",
        {"basic": "basic", "self-repairing": "self_repairing"},
    ),
)


# ---------------------------------------------------------------------------
# Figure 6 — dynamic-load outcome breakdown.
# ---------------------------------------------------------------------------
FIG6 = Figure(
    name="fig6_breakdown",
    alias="6",
    title=(
        "Figure 6: breakdown of all dynamic loads (paper: partial "
        "hits and prefetch-caused misses are both rare)"
    ),
    cells=_fixed(Cell("self_repairing", SR)),
    reduce=lambda name, runs: {
        "workload": name, **runs["self_repairing"].breakdown()
    },
    columns=(
        BENCHMARK,
        Column("hits", "hit", percent),
        Column("hit-prefetched", "hit_prefetched", percent),
        Column("partial hits", "partial_hit", percent),
        Column("misses", "miss", percent),
        Column("miss-due-to-prefetch", "miss_due_to_prefetch", _percent2),
    ),
)


# ---------------------------------------------------------------------------
# Figure 7 — monitoring-window / miss-threshold sensitivity.
# ---------------------------------------------------------------------------
WINDOWS = (128, 256, 512)
RATES = (0.01, 0.03, 0.06, 0.12)


def _threshold_grid(result: FigureResult) -> List[Dict]:
    """The (window, rate) variants' means, one table row per window."""
    return [
        {"window": w, **{r: result.mean((w, r)) for r in RATES}}
        for w in WINDOWS
    ]


FIG7 = Figure(
    name="fig7_threshold_sweep",
    alias="7",
    title=(
        "Figure 7: mean self-repairing speedup vs monitoring "
        "window and miss-rate threshold (paper: 3% at 256 best)"
    ),
    cells=_fixed(Cell("hw_only", HW), *(
        Cell((w, r), SR, {"trident": TridentConfig().with_dlt(
            DLTConfig().with_window(w).with_miss_rate(r)
        )})
        for w in WINDOWS for r in RATES
    )),
    reduce=_speedups,
    layout=_threshold_grid,
    columns=(Column("window \\ rate", "window"),) + tuple(
        Column(percent(r, 0), r, speedup_percent) for r in RATES
    ),
    workloads=SWEEP_WORKLOADS,
)


# ---------------------------------------------------------------------------
# Figure 8 — DLT-size sensitivity.
# ---------------------------------------------------------------------------
SIZES = (128, 256, 512, 1024, 2048)
#: The workloads the paper singles out, shown when they are in the arena.
SPOTLIGHT = ("dot", "parser")

FIG8 = Figure(
    name="fig8_dlt_sweep",
    alias="8",
    title=(
        "Figure 8: self-repairing speedup vs DLT size (paper: "
        "mostly flat; dot and parser want bigger tables)"
    ),
    cells=_fixed(Cell("hw_only", HW), *(
        Cell(size, SR, {"trident": TridentConfig().with_dlt(
            DLTConfig().with_entries(size)
        )})
        for size in SIZES
    )),
    reduce=_speedups,
    layout=variant_rows,
    columns=lambda result: [
        Column("DLT entries", "variant"),
        Column("mean", "mean", speedup_percent),
    ] + [
        Column(name, name, speedup_percent)
        for name in SPOTLIGHT if name in result.workloads
    ],
    workloads=SWEEP_WORKLOADS,
)


# ---------------------------------------------------------------------------
# Figure 9 — software vs hardware prefetching, both over no prefetching.
# ---------------------------------------------------------------------------
FIG9 = Figure(
    name="fig9_sw_vs_hw",
    alias="9",
    title=(
        "Figure 9: prefetching speedup over no prefetching "
        "(paper: SW beats HW by ~11% on average; dot/equake/swim "
        "favour HW)"
    ),
    cells=_fixed(
        Cell("none", PrefetchPolicy.NONE),
        Cell("hw_only", HW),
        Cell("sw_only", PrefetchPolicy.SW_ONLY),
        Cell("combined", SR),
    ),
    reduce=_speedups,
    columns=_speedup_columns(
        ("HW 8x8", "hw_only"),
        ("SW self-repairing", "sw_only"),
        ("combined", "combined"),
    ),
    chart=_bars(
        "speedup over no prefetching", {"hw": "hw_only", "sw": "sw_only"}
    ),
)


# ---------------------------------------------------------------------------
# Section 5.4 closing note — spend the DLT bits on a bigger L1 instead:
# enlarge the L1 by the monitoring structures' storage (~24 KB: 1024 DLT
# entries x ~22 bytes + 256 watch entries) and measure the gain.
# ---------------------------------------------------------------------------
CACHE_EQUIV = Figure(
    name="cache_equiv",
    alias="cache",
    title=(
        "Section 5.4: DLT+watch-table bits spent on L1 capacity "
        "instead (paper: merely +0.8%)"
    ),
    cells=_fixed(
        Cell("hw_only", HW),
        Cell("speedup", HW, {"machine": MachineConfig().with_l1_size(
            88 * 1024
        )}),
    ),
    reduce=_speedups,
    columns=_speedup_columns(("bigger-L1 speedup", "speedup")),
)


# ---------------------------------------------------------------------------
# Ablations over the design choices DESIGN.md calls out: each isolates one
# mechanism of the self-repairing design against a shared baseline.
# ---------------------------------------------------------------------------
def _ablation(
    name: str, title: str, *variants: Cell,
    baseline: Cell = Cell("hw_only", HW),
    workloads: Sequence[str] = SWEEP_WORKLOADS,
) -> Figure:
    """A variant grid: each variant's speedup over ``baseline``, one
    table row per variant, one column per workload plus their mean."""
    return Figure(
        name=name,
        title=title,
        cells=_fixed(baseline, *variants),
        reduce=_speedups,
        layout=variant_rows,
        columns=lambda result: [Column("variant", "variant")] + [
            Column(w, w, speedup_percent)
            for w in sorted({r["workload"] for r in result.rows})
        ] + [Column("mean", "mean", speedup_percent)],
        workloads=workloads,
    )


def _self_repairing(label: str, **options) -> Cell:
    return Cell(label, SR, options)


#: Paper section 5.3: starting the repair search from the estimated
#: distance performs "almost identical" to starting from 1.
ABLATION_INITIAL_DISTANCE = _ablation(
    "ablation_initial_distance",
    "Ablation: initial distance for the self-repairing search",
    _self_repairing(
        "start at 1 (paper default)", initial_distance_mode="one"
    ),
    _self_repairing(
        "start at estimate (eq. 2)", initial_distance_mode="estimate"
    ),
)

#: Same-object grouping on vs off.  Isolating grouping would need BASIC
#: plus repair, which the policy enum doesn't offer, so the paper's own
#: proxies stand in: WHOLE_OBJECT (grouped, frozen) vs BASIC (ungrouped,
#: frozen), with SELF_REPAIRING for reference.
ABLATION_GROUPING = _ablation(
    "ablation_grouping",
    "Ablation: same-object grouping under adaptive repair",
    Cell("grouped, frozen (WHOLE_OBJECT)", PrefetchPolicy.WHOLE_OBJECT),
    Cell("grouped + repair (SELF_REPAIRING)", SR),
    Cell("ungrouped, frozen (BASIC)", PrefetchPolicy.BASIC),
)

#: The DLT's asymmetric stride-confidence update (-7 in the paper):
#: smaller penalties let noisy pointer chains masquerade as strided.
PENALTIES = (1, 3, 7, 15)
ABLATION_CONFIDENCE_PENALTY = _ablation(
    "ablation_confidence_penalty",
    "Ablation: DLT stride-confidence down-step (paper: -7)",
    *(
        _self_repairing(f"-{p}", trident=TridentConfig().with_dlt(
            DLTConfig(confidence_down=p)
        ))
        for p in PENALTIES
    ),
)

#: Scale the 2x max-distance repair budget (the paper's maturing rule)
#: through ``TridentConfig.repair_budget_multiplier``, which reaches
#: worker processes and the cache key.
REPAIR_BUDGETS = (0.5, 1.0, 2.0, 4.0)
ABLATION_REPAIR_BUDGET = _ablation(
    "ablation_repair_budget",
    "Ablation: repair budget multiplier (paper: 2x max distance)",
    *(
        _self_repairing(
            f"{m}x", trident=TridentConfig().with_repair_budget(m)
        )
        for m in REPAIR_BUDGETS
    ),
)

#: The paper's stated future work (section 3.5.2): clear mature flags on
#: a working-set/phase change so the prefetcher can re-adapt.
ABLATION_PHASE_DETECTION = _ablation(
    "ablation_phase_detection",
    "Extension: phase-aware mature clearing "
    "(paper future work, off by default)",
    _self_repairing(
        "phase detection off (paper)",
        trident=TridentConfig(phase_detection=False),
    ),
    _self_repairing(
        "phase detection on", trident=TridentConfig(phase_detection=True)
    ),
)


def _markov_buffers(entries: int) -> MachineConfig:
    return MachineConfig().with_stream_buffers(dataclasses.replace(
        StreamBufferConfig.paper_8x8(), markov_entries=entries
    ))


#: The PSB's stride-filtered Markov second level (Sherwood et al., the
#: paper's citation [27]): off in the Table-1 baseline, measured here as
#: hardware-only speedup over no prefetching.
ABLATION_MARKOV = _ablation(
    "ablation_markov",
    "Extension: stride-filtered Markov second level for the "
    "stream buffers (off in the paper's Table-1 baseline)",
    Cell("stride-guided only (paper)", HW, {"machine": _markov_buffers(0)}),
    Cell("with markov second level", HW, {"machine": _markov_buffers(2048)}),
    baseline=Cell("none", PrefetchPolicy.NONE),
    workloads=("dot", "mcf", "parser"),
)


# ---------------------------------------------------------------------------
# Resilience — recovery after an injected DRAM latency phase shift.
#
# Halfway through the measured budget a permanent DRAM latency increase is
# injected (a memory-system phase shift).  Both policies run with the
# section-3.5.2 phase detector re-opening mature records; only the
# self-repairing policy may re-tune distances and climb back, while the
# basic policy tuned once and cannot.  ``sample_interval`` rides in the
# job spec, so the windowed-IPC samples survive caching.
# ---------------------------------------------------------------------------
#: Measured chunks per run; the fault lands at the halfway boundary.
CHUNKS = 8
EXTRA_CYCLES = 250
SEED = 1


def _resilience_cells(budget: int, warmup: int) -> Tuple[Cell, ...]:
    chunk = max(1, budget // CHUNKS)
    options = {
        "trident": TridentConfig(phase_detection=True),
        "max_instructions": chunk * CHUNKS,
        "seed": SEED,
        "fault_plan": FaultPlan.latency_phase_shift(
            at_instruction=warmup + chunk * (CHUNKS // 2),
            extra_cycles=EXTRA_CYCLES,
            seed=SEED,
        ),
        "sample_interval": chunk,
    }
    return (
        Cell("basic", PrefetchPolicy.BASIC, options),
        Cell("self-repairing", SR, options),
    )


def _resilience_metrics(samples) -> Dict:
    """IPC dip, recovery ratio and reconvergence point around the
    mid-run fault, from one run's per-chunk samples."""
    windows: List[Dict] = [
        {"ipc": s["ipc"], "repairs": s["repairs"]} for s in samples
    ]
    half = CHUNKS // 2
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


def _recovery_curves(result: FigureResult) -> str:
    curves = []
    for r in result.rows:
        ipcs = [w["ipc"] for w in r["windows"]]
        if ipcs:
            curves.append(
                f"{r['workload']:>10s} {r['policy']:<15s} "
                f"ipc/window |{sparkline(ipcs)}| "
                f"{min(ipcs):.3f}..{max(ipcs):.3f}"
            )
    if not curves:
        return ""
    head = "windowed-IPC recovery curves (fault at mid-window)"
    return "\n".join([head, "-" * len(head)] + curves)


RESILIENCE = Figure(
    name="resilience",
    title=(
        "Resilience: +%d-cycle DRAM phase shift at mid-run "
        "(recovery = final IPC / first post-fault chunk IPC; "
        "section 3.5.2's repair budget in action)" % EXTRA_CYCLES
    ),
    cells=_resilience_cells,
    reduce=lambda name, runs: [
        {"workload": name, "policy": key, **_resilience_metrics(run.samples)}
        for key, run in runs.items()
    ],
    columns=(
        BENCHMARK,
        Column("policy", "policy"),
        Column("pre IPC", "pre_ipc", _ipc),
        Column("dip IPC", "dip_ipc", _ipc),
        Column("final IPC", "final_ipc", _ipc),
        Column("recovery", "recovery", "{:.3f}x".format, mean=True),
        Column("repairs after", "repairs_after"),
        Column(
            "reconverged by", "windows_to_reconverge",
            lambda v: "-" if v is None else str(v),
        ),
    ),
    average_by="policy",
    chart=_recovery_curves,
    workloads=SWEEP_WORKLOADS,
)


def _suffixed_path(base: str, suffix: str) -> str:
    root, ext = os.path.splitext(base)
    return f"{root}.{suffix}{ext or '.json'}"


def _traced_runs(
    cells: Sequence[Cell], jobs: Sequence[SimJob], name: str, out: str
) -> List[SimulationResult]:
    """One workload's resilience jobs, in-process, with the
    self-repairing run's event stream written to ``out``."""
    runs = []
    for cell, job in zip(cells, jobs):
        observer = Observer(sample_interval=job.sample_interval)
        runs.append(_execute_job(job, observer=observer)[0])
        if cell.key == "self-repairing":
            write_chrome_trace(
                observer.events(), out,
                metadata={"workload": name, "policy": job.config.policy.value},
            )
    return runs


def resilience_traced(
    workloads: Optional[Sequence[str]],
    max_instructions: Optional[int],
    warmup: Optional[int],
    trace_out: str,
    fast: bool = True,
) -> FigureResult:
    """The resilience figure with each workload's self-repairing run
    exported as Perfetto-loadable Chrome trace JSON: the fault, the
    renewed repairs and the windowed-IPC counter track in one timeline
    (``trace_out``, suffixed per workload when there are several).

    The jobs are the engine path's own; they run in-process because the
    export needs each live observer's event ring.
    """
    result, jobs = _plan(RESILIENCE, workloads, max_instructions, warmup, fast)
    width = len(result.cells)
    grouped: Dict[str, List[SimulationResult]] = {}
    for index, name in enumerate(result.workloads):
        group = jobs[index * width:(index + 1) * width]
        out = (
            trace_out if len(result.workloads) == 1
            else _suffixed_path(trace_out, name)
        )
        runs = run_isolated(
            result.errors, name,
            lambda: _traced_runs(result.cells, group, name, out),
        )
        if runs is not None:
            grouped[name] = runs
    return _reduce(result, grouped)


# ---------------------------------------------------------------------------
# Budget scaling — the incremental-simulation showcase.
#
# The paper's headline numbers come from one long run per cell; this
# sweep shows *how* the self-repairing policy's advantage develops as the
# measured budget grows (the optimizer links traces, inserts prefetches
# and repairs distances over time).  Budgets are ``max_instructions /
# STEPS * (1..STEPS)``; every (workload, policy) column is one resume
# chain, so with a checkpoint store attached the engine pays for the
# longest budget plus capture overhead, not the sum of all budgets.
# ---------------------------------------------------------------------------
STEPS = 3


def _scaling_cells(budget: int, warmup: int) -> Tuple[Cell, ...]:
    budgets = [max(1, budget * i // STEPS) for i in range(1, STEPS + 1)]
    return tuple(
        Cell((kind, b), policy, {"max_instructions": b})
        for kind, policy in (("hw", HW), ("sr", SR))
        for b in budgets
    )


def _scaling_row(name: str, runs: Dict) -> Dict:
    row: Dict = {"workload": name}
    for kind, budget in runs:
        if kind == "sr":
            row[budget] = runs[kind, budget].speedup_over(runs["hw", budget])
    return row


def _scaling_columns(result: FigureResult) -> List[Column]:
    budgets = [b for kind, b in (c.key for c in result.cells) if kind == "sr"]

    def trend(row: Mapping) -> str:
        return sparkline([max(0.0, row[b] - 1.0) for b in budgets])

    return [BENCHMARK] + [
        Column(f"{b:,}", b, speedup_percent, mean=True) for b in budgets
    ] + [Column("trend", trend)]


SCALING = Figure(
    name="scaling",
    title=(
        "Budget scaling: self-repairing speedup over HW_ONLY at "
        "ascending measured budgets (one checkpoint chain per "
        "column pair)"
    ),
    cells=_scaling_cells,
    reduce=_scaling_row,
    columns=_scaling_columns,
    reference=False,
)


# ---------------------------------------------------------------------------
# Policy tournament — every policy (paper + zoo) on every workload.
#
# The default arena is every builtin benchmark plus the curated scenario
# catalog (its stress scenarios exercise access patterns the builtins
# don't).  Each row holds one workload's per-contender IPC and speedup
# over ``hw_only`` and its winner; :func:`ranking` orders the contenders.
# ---------------------------------------------------------------------------
def tournament_contenders() -> List[str]:
    """The tournament field, in fixed submission order: the hardware
    baseline first (everyone's denominator), the paper's software
    policies, then every registered zoo engine."""
    return ["hw_only", "basic", "self_repairing"] + list(zoo_names())


def _tournament_row(name: str, runs: Dict) -> Dict:
    baseline = runs["hw_only"]
    speedup = {
        label: run.speedup_over(baseline) for label, run in runs.items()
    }
    best = max(speedup.values())
    return {
        "workload": name,
        "ipc": {label: run.ipc for label, run in runs.items()},
        "speedup": speedup,
        "winner": next(label for label in speedup if speedup[label] == best),
    }


def ranking(result: FigureResult) -> List[Dict]:
    """``[{policy, mean_speedup, wins}]`` best-first, ties broken by name
    so the order is deterministic across runs and processes."""
    if not result.rows:
        return []
    entries = [
        {
            "policy": cell.key,
            "mean_speedup": arithmetic_mean(
                [r["speedup"][cell.key] for r in result.rows]
            ),
            "wins": sum(1 for r in result.rows if r["winner"] == cell.key),
        }
        for cell in result.cells
    ]
    entries.sort(key=lambda e: (-e["mean_speedup"], e["policy"]))
    return entries


def _tournament_columns(result: FigureResult) -> List[Column]:
    base, *labels = [cell.key for cell in result.cells]
    return [
        Column("workload", "workload"),
        Column(f"{base} IPC", lambda r: r["ipc"][base], _ipc),
    ] + [
        Column(label, lambda r, label=label: r["speedup"][label],
               speedup_percent)
        for label in labels
    ]


def _tournament_ranking(result: FigureResult) -> str:
    entries = ranking(result)
    table = render_table(
        ["rank", "policy", "mean speedup", "wins"],
        [
            (str(position + 1), e["policy"],
             speedup_percent(e["mean_speedup"]), str(e["wins"]))
            for position, e in enumerate(entries)
        ],
        title="Ranking (mean speedup across the arena; ties by name)",
    )
    chart = bar_chart(
        "mean speedup over hw_only",
        [(e["policy"], e["mean_speedup"]) for e in entries],
        unit="x",
        baseline=1.0,
    )
    return table + "\n\n" + chart


TOURNAMENT = Figure(
    name="tournament",
    title=(
        "Policy tournament: speedup over the hw_only stream-"
        "buffer baseline, every policy x every workload"
    ),
    cells=lambda budget, warmup: tuple(
        Cell(label, label) for label in tournament_contenders()
    ),
    reduce=_tournament_row,
    columns=_tournament_columns,
    chart=_tournament_ranking,
    workloads=tuple(BENCHMARK_NAMES) + tuple(
        f"scenario:{name}" for name in CATALOG
    ),
)


#: Every figure, in EXPERIMENTS.md's table order.
FIGURES: Dict[str, Figure] = {
    figure.name: figure
    for figure in (
        FIG2, FIG3, FIG4, FIG5, FIG6, FIG7, FIG8, FIG9, CACHE_EQUIV,
        ABLATION_INITIAL_DISTANCE, ABLATION_GROUPING,
        ABLATION_CONFIDENCE_PENALTY, ABLATION_REPAIR_BUDGET,
        ABLATION_PHASE_DETECTION, ABLATION_MARKOV,
        RESILIENCE, TOURNAMENT, SCALING,
    )
}
