"""Programmatic verdicts on the paper's claims.

Each :class:`Claim` names a quantitative statement from the paper's
evaluation, the ``FIGURES`` entry it reads, and a predicate over that
figure's result.  ``evaluate_claims`` runs each named figure once and
grades every claim REPRODUCED / DEVIATES, so a reader (or CI) can see at
a glance where the reproduction stands — the machine-checkable version
of EXPERIMENTS.md's summary table.

Use from the CLI::

    python -m repro claims --workloads mcf,art,swim --instructions 80000
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from ..hwprefetch.zoo import zoo_names
from .experiments import (
    FIGURES,
    FigureResult,
    ranking,
    run_figure,
    tournament_contenders,
)
from .report import render_table


@dataclass
class Claim:
    """One gradeable statement from the paper."""

    ident: str
    statement: str
    #: The ``FIGURES`` entry the check reads.
    figure: str
    #: Receives that figure's result; returns (ok, detail).
    check: Callable[[FigureResult], tuple]


@dataclass
class Verdict:
    claim: Claim
    ok: bool
    detail: str


# ---------------------------------------------------------------------------
# Claim predicates.
# ---------------------------------------------------------------------------
def _hw_helps(fig2):
    m44, m88 = fig2.mean("speedup_4x4"), fig2.mean("speedup_8x8")
    return m88 > 1.0 and m44 > 1.0, f"4x4 {m44:.2f}x, 8x8 {m88:.2f}x"


def _overhead_tiny(fig3):
    overhead = fig3.mean("overhead")
    return overhead < 0.02, f"overhead-only slowdown {overhead:.2%}"


def _coverage_high(fig4):
    traced = fig4.mean("trace_coverage")
    ok = traced > 0.6
    return ok, (
        f"{traced:.0%} of misses in traces, "
        f"{fig4.mean('prefetch_coverage'):.0%} prefetchable"
    )


def _repair_beats_basic(fig5):
    basic = fig5.mean("basic")
    repaired = fig5.mean("self_repairing")
    ok = repaired > basic and repaired > 1.03
    return ok, f"basic {basic:.3f}x vs self-repairing {repaired:.3f}x"


def _ordering_holds(fig5):
    basic = fig5.mean("basic")
    whole = fig5.mean("whole_object")
    repaired = fig5.mean("self_repairing")
    ok = basic <= whole * 1.02 and whole <= repaired * 1.02
    return ok, f"{basic:.3f} <= {whole:.3f} <= {repaired:.3f}"


def _prefetch_caused_misses_rare(fig6):
    worst = max(r["miss_due_to_prefetch"] for r in fig6.rows)
    mean = fig6.mean("miss_due_to_prefetch")
    ok = mean < 0.05
    return ok, f"mean {mean:.2%}, worst {worst:.2%}"


def _combined_best(fig9):
    hw = fig9.mean("hw_only")
    combined = fig9.mean("combined")
    ok = combined >= hw
    return ok, f"HW {hw:.2f}x, combined {combined:.2f}x"


def _sw_competitive(fig9):
    hw = fig9.mean("hw_only")
    sw = fig9.mean("sw_only")
    ok = sw >= hw * 0.9
    return ok, f"SW-only {sw:.2f}x vs HW-only {hw:.2f}x"


def _software_outranks_zoo(tournament):
    """The adaptivity claim, stress-tested: the self-repairing software
    prefetcher must outrank every *adaptive hardware* engine in the zoo,
    not just the paper's static stream-buffer baseline."""
    by_policy = {
        e["policy"]: e["mean_speedup"] for e in ranking(tournament)
    }
    repaired = by_policy["self_repairing"]
    zoo = {name: by_policy[name] for name in zoo_names() if name in by_policy}
    if not zoo:
        return False, "no zoo contenders ranked"
    best_name = max(zoo, key=lambda n: zoo[n])
    ok = all(repaired > speedup for speedup in zoo.values())
    return ok, (
        f"self_repairing {repaired:.3f}x vs best zoo engine "
        f"{best_name} {zoo[best_name]:.3f}x"
    )


def _tournament_complete(tournament):
    """Structural claim on the harness itself: every contender produced
    a result on every workload and the ranking covers all of them."""
    contenders = set(tournament_contenders())
    complete = all(
        set(row["speedup"]) == contenders for row in tournament.rows
    )
    ranked = {entry["policy"] for entry in ranking(tournament)}
    ok = bool(tournament.rows) and complete and ranked == contenders
    return ok, (
        f"{len(tournament.rows)} workloads x {len(contenders)} "
        f"contenders, {len(tournament.errors)} errors"
    )


CLAIMS: List[Claim] = [
    Claim(
        "fig2-hw-baseline",
        "Hardware stream buffers speed up the no-prefetch baseline",
        "fig2_hw_baseline",
        _hw_helps,
    ),
    Claim(
        "s5.1-overhead",
        "Running the optimizer without linking traces is nearly free "
        "(paper: 0.6%)",
        "fig3_overhead",
        _overhead_tiny,
    ),
    Claim(
        "fig4-coverage",
        "Most load misses occur inside hot traces (paper: >85%)",
        "fig4_coverage",
        _coverage_high,
    ),
    Claim(
        "fig5-headline",
        "Self-repairing beats non-adaptive software prefetching "
        "(paper: +23% vs +11%)",
        "fig5_policies",
        _repair_beats_basic,
    ),
    Claim(
        "fig5-ordering",
        "basic <= whole-object <= self-repairing on average",
        "fig5_policies",
        _ordering_holds,
    ),
    Claim(
        "fig6-displacement",
        "Misses caused by prefetch displacement are rare",
        "fig6_breakdown",
        _prefetch_caused_misses_rare,
    ),
    Claim(
        "fig9-combined",
        "Software + hardware prefetching combined is at least as good "
        "as hardware alone",
        "fig9_sw_vs_hw",
        _combined_best,
    ),
    Claim(
        "fig9-sw-competitive",
        "Software-only prefetching is competitive with the 8x8 buffers "
        "(paper: +11% better)",
        "fig9_sw_vs_hw",
        _sw_competitive,
    ),
    Claim(
        "tournament-sw-adaptivity",
        "Self-repairing software prefetching outranks every adaptive "
        "hardware engine in the zoo",
        "tournament",
        _software_outranks_zoo,
    ),
    Claim(
        "tournament-complete",
        "The policy tournament ranks every contender on every workload",
        "tournament",
        _tournament_complete,
    ),
]


def evaluate_claims(
    workloads: Optional[Sequence[str]] = None,
    max_instructions: Optional[int] = None,
    warmup: Optional[int] = None,
    engine=None,
    fast: bool = True,
) -> List[Verdict]:
    """Run each figure the claims name once and grade all claims.

    An :class:`~repro.harness.engine.ExperimentEngine` may be passed so
    the figures share one cache and worker fleet; figures that repeat a
    baseline (fig2's HW runs, fig9's) then cost one simulation total.
    """
    results: Dict[str, FigureResult] = {}
    verdicts = []
    for claim in CLAIMS:
        if claim.figure not in results:
            results[claim.figure] = run_figure(
                FIGURES[claim.figure], workloads, max_instructions,
                warmup, engine, fast,
            )
        ok, detail = claim.check(results[claim.figure])
        verdicts.append(Verdict(claim=claim, ok=ok, detail=detail))
    return verdicts


def render_verdicts(verdicts: Sequence[Verdict]) -> str:
    rows = [
        (
            v.claim.ident,
            "REPRODUCED" if v.ok else "DEVIATES",
            v.detail,
        )
        for v in verdicts
    ]
    passed = sum(1 for v in verdicts if v.ok)
    table = render_table(
        ["claim", "verdict", "measured"],
        rows,
        title=f"Paper claims: {passed}/{len(verdicts)} reproduced",
    )
    return table
