"""Experiment harness: simulation driver, the figure specs (paper
figures, ablations and studies), reporting, and claim grading."""

from .cache import ResultCache, code_version, stable_hash
from .charts import bar_chart, grouped_bar_chart
from .claims import CLAIMS, evaluate_claims, render_verdicts
from .engine import (
    EngineStats,
    ExperimentEngine,
    JobOutcome,
    SimJob,
    make_job,
    run_workload_groups,
)
from .journal import JobJournal, JournalState, job_key
from .supervisor import RetryPolicy, WorkerSupervisor
from .experiments import (
    FIGURES,
    Cell,
    Column,
    Figure,
    FigureResult,
    bench_instructions,
    bench_workloads,
    run_figure,
)
from .report import (
    arithmetic_mean,
    geometric_mean,
    percent,
    render_mapping,
    render_table,
    speedup_percent,
)
from .runner import Simulation, SimulationResult, run_simulation

__all__ = [
    "Cell",
    "Column",
    "EngineStats",
    "ExperimentEngine",
    "JobJournal",
    "JobOutcome",
    "JournalState",
    "ResultCache",
    "RetryPolicy",
    "WorkerSupervisor",
    "SimJob",
    "Simulation",
    "SimulationResult",
    "code_version",
    "job_key",
    "make_job",
    "run_workload_groups",
    "stable_hash",
    "arithmetic_mean",
    "CLAIMS",
    "bar_chart",
    "grouped_bar_chart",
    "bench_instructions",
    "bench_workloads",
    "evaluate_claims",
    "FIGURES",
    "Figure",
    "FigureResult",
    "geometric_mean",
    "percent",
    "render_mapping",
    "render_verdicts",
    "render_table",
    "run_figure",
    "run_simulation",
    "speedup_percent",
]
