#!/usr/bin/env python
"""Rebuild EXPERIMENTS.md's reference tables from benchmarks/results/.

Run after a bench pass::

    pytest benchmarks/ --benchmark-only
    python tools/update_experiments.py

or regenerate the tables directly through the experiment engine —
shared HW_ONLY baselines are simulated once per budget and every rerun
replays unchanged results from the cache::

    python tools/update_experiments.py --regenerate --jobs 4

The section between the ``## Reference tables`` heading and the next
``## `` heading is replaced with the current contents of the results
directory, in ``FIGURES`` order (one file per reference figure, named
after it).
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).parent.parent
RESULTS = ROOT / "benchmarks" / "results"
EXPERIMENTS = ROOT / "EXPERIMENTS.md"

sys.path.insert(0, str(ROOT / "src"))

from repro.harness.engine import ExperimentEngine  # noqa: E402
from repro.harness.experiments import FIGURES, run_figure  # noqa: E402

#: The figures with a table in EXPERIMENTS.md, in table order (any other
#: results file is appended alphabetically).
REFERENCE_FIGURES = [
    name for name, figure in FIGURES.items() if figure.reference
]


def collect_tables() -> str:
    """Gather the result tables, tolerating damage.

    A missing, unreadable, or empty results file — a bench that crashed
    mid-write, a partial sync — is skipped with a warning instead of
    sinking the whole rebuild; only a completely empty results directory
    is fatal.
    """
    files = {p.stem: p for p in RESULTS.glob("*.txt")}
    names = [n for n in REFERENCE_FIGURES if n in files]
    names += sorted(set(files) - set(REFERENCE_FIGURES))
    tables = []
    for name in names:
        try:
            text = files[name].read_text().strip()
        except OSError as exc:
            print(
                f"warning: skipping unreadable {files[name].name}: {exc}",
                file=sys.stderr,
            )
            continue
        if not text:
            print(
                f"warning: skipping empty {files[name].name}",
                file=sys.stderr,
            )
            continue
        tables.append(text)
    if not tables:
        raise SystemExit(
            "no usable results found; run "
            "`pytest benchmarks/ --benchmark-only`"
        )
    return "\n\n".join(tables)


def regenerate(jobs: int, refresh: bool, workloads) -> None:
    """Re-run every reference figure through one shared engine and
    rewrite benchmarks/results/*.txt (what a full bench pass would
    produce); each figure's own arena applies unless ``workloads``."""
    engine = ExperimentEngine(workers=jobs, refresh=refresh)
    RESULTS.mkdir(exist_ok=True)
    for name in REFERENCE_FIGURES:
        print(f"regenerating {name} ...", file=sys.stderr)
        result = run_figure(FIGURES[name], workloads, engine=engine)
        (RESULTS / f"{name}.txt").write_text(result.render() + "\n")
    print(engine.stats.summary(), file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--regenerate",
        action="store_true",
        help=(
            "re-run every experiment through the engine (honouring "
            "REPRO_BENCH_* budgets) before rebuilding EXPERIMENTS.md"
        ),
    )
    parser.add_argument(
        "--jobs", type=int, metavar="N", default=1,
        help="engine worker processes for --regenerate",
    )
    parser.add_argument(
        "--refresh", action="store_true",
        help="with --regenerate: bypass cached results and re-simulate",
    )
    parser.add_argument(
        "--workloads", default=None,
        help="with --regenerate: comma-separated workload subset",
    )
    # Tests call main() directly; only the __main__ guard passes argv.
    args = parser.parse_args([] if argv is None else argv)
    if args.regenerate:
        workloads = None
        if args.workloads:
            workloads = [
                w.strip() for w in args.workloads.split(",") if w.strip()
            ]
        regenerate(args.jobs, args.refresh, workloads)
    text = EXPERIMENTS.read_text()
    block = "## Reference tables\n\n```\n" + collect_tables() + "\n```\n"
    pattern = re.compile(
        r"## Reference tables\n+```\n.*?\n```\n", flags=re.S
    )
    if not pattern.search(text):
        raise SystemExit("EXPERIMENTS.md has no '## Reference tables'")
    EXPERIMENTS.write_text(pattern.sub(block, text, count=1))
    print(f"EXPERIMENTS.md updated from {RESULTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
