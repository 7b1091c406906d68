#!/usr/bin/env python
"""Perf-trend reporting and regression gating over the bench history.

Every bench run appends one JSON record (stamped with UTC time and git
revision) to ``benchmarks/results/BENCH_history.jsonl`` — see
``benchmarks/bench_output.py``.  This tool turns that feed into:

* ``report`` — a per-bench trend table: every recorded run at each
  budget, its headline metric, and the delta of the latest run against
  its baseline (below);
* ``check``  — the regression gate: for every (bench, budget) series,
  fail when the latest run's headline metric regresses more than
  ``--threshold`` (default 20%) against its baseline.  ``--report-only``
  prints the verdicts but always exits 0 (CI's mode while history
  accumulates);
* ``measure`` — run a tracked bench directly (no pytest session) and
  append its record, so CI and developers can grow history cheaply:
  ``REPRO_BENCH_INSTRUCTIONS=8000 python tools/bench_trend.py measure``.

The headline metric is the record's ``speedup`` when it has one (higher
is better), else the summed wall time of its cells (lower is better).
Its baseline depends on what the record measured:

* a *paired* record (``perfbench`` runs alternating parent and change,
  recorded with ``end_to_end`` parent/change quartiles) carries a
  ``speedup`` that already is the change over its parent, so it is
  judged against 1.0, the parent itself.  Comparing it with earlier
  ratios would make every neutral change after a fast one a regression;
* any other record is an absolute measurement, judged against the best
  earlier unpaired record of its series (a slow middle run must not
  lower the bar); a series with no earlier one has no verdict yet.

Records are only ever compared within one (bench, instructions, warmup)
series: an 8k-instruction smoke run and a 120k full run measure
different things and must not gate each other.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import Dict, List, Optional, Tuple

_REPO = pathlib.Path(__file__).resolve().parent.parent
for entry in (str(_REPO / "src"), str(_REPO / "benchmarks")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

DEFAULT_THRESHOLD = 0.20


def _series_key(record: Dict) -> Tuple[str, int, int]:
    budget = record.get("budget") or {}
    return (
        record.get("bench", "?"),
        int(budget.get("instructions") or 0),
        int(budget.get("warmup") or 0),
    )


def _headline(record: Dict) -> Tuple[str, float, bool]:
    """``(metric name, value, higher_is_better)`` for one record."""
    speedup = record.get("speedup")
    if isinstance(speedup, (int, float)):
        return ("speedup", float(speedup), True)
    walls = record.get("wall_times_s") or {}
    total = sum(
        v for v in walls.values() if isinstance(v, (int, float))
    )
    return ("wall_s", total, False)


def _load_series(
    history_path: Optional[str],
) -> Dict[Tuple[str, int, int], List[Dict]]:
    from bench_output import read_history

    series: Dict[Tuple[str, int, int], List[Dict]] = {}
    for record in read_history(history_path):
        series.setdefault(_series_key(record), []).append(record)
    return series


def _best(records: List[Dict]) -> float:
    metric, _, higher = _headline(records[0])
    values = [_headline(r)[1] for r in records]
    return max(values) if higher else min(values)


def _paired(record: Dict) -> bool:
    """True for a change-over-parent record from alternating pairs."""
    end_to_end = record.get("end_to_end")
    return (
        isinstance(record.get("speedup"), (int, float))
        and isinstance(end_to_end, dict)
        and any(
            isinstance(metric, dict) and "parent_q1_med_q3" in metric
            for metric in end_to_end.values()
        )
    )


def _baseline(records: List[Dict]) -> Optional[Tuple[str, float]]:
    """``(name, value)`` the latest record is judged against, or None
    while an unpaired series has no earlier unpaired record."""
    if _paired(records[-1]):
        return ("parent", 1.0)
    earlier = [r for r in records[:-1] if not _paired(r)]
    if not earlier:
        return None
    return ("best", _best(earlier))


def _regression(latest: float, best: float, higher: bool) -> float:
    """Fractional regression of ``latest`` against ``best`` (>0 means
    worse); guards the zero-best corner."""
    if best == 0:
        return 0.0
    if higher:
        return (best - latest) / best
    return (latest - best) / best


def cmd_report(args: argparse.Namespace) -> int:
    series = _load_series(args.history)
    if not series:
        print("no bench history recorded yet")
        return 0
    for key in sorted(series):
        bench, instructions, warmup = key
        records = series[key]
        metric, _, higher = _headline(records[0])
        print(
            f"{bench} @ {instructions:,}+{warmup:,} instructions "
            f"({len(records)} run(s), metric: {metric}, "
            f"{'higher' if higher else 'lower'} is better)"
        )
        for record in records:
            _, value, _ = _headline(record)
            stamp = record.get("recorded_at", "?")
            rev = record.get("git_rev") or "?"
            print(f"  {stamp}  {rev:>9}  {metric}={value:.4f}")
        baseline = _baseline(records)
        if baseline is not None:
            name, base = baseline
            _, latest, _ = _headline(records[-1])
            regression = _regression(latest, base, higher)
            label = "best-so-far" if name == "best" else name
            print(
                f"  latest vs {label}: {latest:.4f} vs {base:.4f} "
                f"({-regression * 100:+.1f}%)"
            )
        print()
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    series = _load_series(args.history)
    gated = {
        key: (records, _baseline(records))
        for key, records in series.items()
        if _baseline(records) is not None
    }
    if not gated:
        print(
            "bench-trend gate: no series with a baseline yet; "
            "nothing to compare"
        )
        return 0
    failures = 0
    for key in sorted(gated):
        bench, instructions, warmup = key
        records, (name, base) = gated[key]
        metric, _, higher = _headline(records[0])
        _, latest, _ = _headline(records[-1])
        regression = _regression(latest, base, higher)
        verdict = "PASS"
        if regression > args.threshold:
            verdict = "FAIL"
            failures += 1
        print(
            f"{verdict}  {bench} @ {instructions:,}+{warmup:,}: "
            f"{metric} {latest:.4f} vs {name} {base:.4f} "
            f"({-regression * 100:+.1f}%, gate -{args.threshold:.0%})"
        )
    if failures and not args.report_only:
        print(
            f"bench-trend gate: {failures} series regressed beyond "
            f"{args.threshold:.0%}",
            file=sys.stderr,
        )
        return 1
    if failures:
        print(
            f"bench-trend gate: {failures} regression(s) noted "
            "(--report-only: not failing)"
        )
    return 0


def _measure_interp_fastpath() -> pathlib.Path:
    import bench_interp_fastpath as bench

    rows = bench.run_fastpath_bench()
    print(bench.render(rows))
    return bench.record_rows(rows)


#: Benches ``measure`` can run standalone (no pytest session needed).
MEASURABLE = {
    "interp_fastpath": _measure_interp_fastpath,
}


def cmd_measure(args: argparse.Namespace) -> int:
    runner = MEASURABLE.get(args.bench)
    if runner is None:
        print(
            f"error: unknown bench {args.bench!r} "
            f"(measurable: {', '.join(sorted(MEASURABLE))})",
            file=sys.stderr,
        )
        return 2
    path = runner()
    print(f"\nrecorded to {path}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench_trend",
        description="perf-trend reports and regression gating over "
        "benchmarks/results/BENCH_history.jsonl",
    )
    parser.add_argument(
        "--history",
        metavar="PATH",
        default=None,
        help="history file (default: benchmarks/results/"
        "BENCH_history.jsonl)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("report", help="print the per-bench trend tables")
    check = sub.add_parser(
        "check", help="fail when the latest run regresses vs the best"
    )
    check.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        metavar="FRACTION",
        help=f"allowed fractional regression (default "
        f"{DEFAULT_THRESHOLD})",
    )
    check.add_argument(
        "--report-only",
        action="store_true",
        help="print verdicts but always exit 0",
    )
    measure = sub.add_parser(
        "measure",
        help="run a tracked bench standalone and append its record",
    )
    measure.add_argument(
        "--bench",
        default="interp_fastpath",
        help="which bench to run (default: interp_fastpath)",
    )
    args = parser.parse_args(argv)
    if args.command == "report":
        return cmd_report(args)
    if args.command == "check":
        return cmd_check(args)
    return cmd_measure(args)


if __name__ == "__main__":
    sys.exit(main())
