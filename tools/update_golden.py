#!/usr/bin/env python
"""Regenerate the golden-trace regression fixtures in tests/data/golden/.

Each fixture pins the full ``SimulationResult.to_dict()`` payload of one
small-budget (workload, policy) cell — cycles, IPC, miss counts, repair
counters, windowed samples, everything — plus a sha256 of its canonical
JSON.  ``tests/test_golden_traces.py`` recomputes every cell on every CI
run and diffs the payloads, so *any* silent timing drift in the
interpreter, the memory hierarchy, or the Trident runtime fails with a
readable field-level diff instead of slipping into the figures.

Run after an intentional timing change::

    PYTHONPATH=src python tools/update_golden.py

and commit the rewritten fixtures together with the change that
justifies them.  The budgets are deliberately tiny (the point is drift
detection, not realism); the grid covers every registered workload so
each workload's access pattern — strided, pointer-chasing, phased —
exercises its own corner of the timing model.

It also rewrites ``tests/data/figures/<name>.txt``: the rendered table
of every figure and ablation on a two-workload arena at a tiny budget,
which ``tests/test_figure_renders.py`` re-renders and byte-compares.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys
import tempfile

ROOT = pathlib.Path(__file__).parent.parent
GOLDEN_DIR = ROOT / "tests" / "data" / "golden"

sys.path.insert(0, str(ROOT / "src"))

from repro.config import PrefetchPolicy  # noqa: E402
from repro.harness.cache import ResultCache  # noqa: E402
from repro.harness.engine import ExperimentEngine  # noqa: E402
from repro.harness.experiments import FIGURES, run_figure  # noqa: E402
from repro.harness.runner import run_simulation  # noqa: E402
from repro.hwprefetch.zoo import zoo_names  # noqa: E402
from repro.scenarios import CATALOG  # noqa: E402
from repro.workloads.registry import BENCHMARK_NAMES  # noqa: E402

#: The fixture grid.  Policies chosen to pin both the bare timing model
#: (HW_ONLY: no runtime, no traces) and the full self-repair loop
#: (SELF_REPAIRING: traces, DLT, repairs, helper thread).
POLICIES = (PrefetchPolicy.HW_ONLY, PrefetchPolicy.SELF_REPAIRING)
MAX_INSTRUCTIONS = 4_000
WARMUP_INSTRUCTIONS = 1_000
SAMPLE_INTERVAL = 1_000
SEED = 1

#: Curated DSL scenarios pinned alongside the builtin benchmarks: the
#: scenario compiler (register plan, data-structure layout, phase
#: nesting) is part of the timing surface these fixtures guard.
SCENARIO_NAMES = tuple(CATALOG)
ALL_WORKLOADS = tuple(BENCHMARK_NAMES) + SCENARIO_NAMES

#: Hardware-prefetcher zoo cells: every registered zoo policy on a
#: small workload subset (one pointer-chaser, one DSL scenario) — the
#: zoo engines' timing is pinned without quadrupling the grid.
ZOO_POLICIES = tuple(zoo_names())
ZOO_WORKLOADS = ("mcf", "stride-flip")


def workload_arg(name: str, seed: int = SEED):
    """Resolve a grid entry: catalog scenarios compile to Workload
    objects, builtin names pass through to the registry."""
    if name in CATALOG:
        return CATALOG[name].build(seed)
    return name


def canonical(payload: dict) -> str:
    """The byte-exact form the equivalence suite compares (no sort_keys:
    dict ordering is part of the result contract)."""
    return json.dumps(payload)


def policy_value(policy) -> str:
    """Fixture key for a cell's policy: enum value or zoo name."""
    return policy.value if isinstance(policy, PrefetchPolicy) else policy


def generate_cell(workload: str, policy) -> dict:
    result = run_simulation(
        workload_arg(workload),
        policy=policy,  # run_simulation resolves zoo names itself
        max_instructions=MAX_INSTRUCTIONS,
        warmup_instructions=WARMUP_INSTRUCTIONS,
        seed=SEED,
        sample_interval=SAMPLE_INTERVAL,
    )
    payload = result.to_dict()
    return {
        "spec": {
            "workload": workload,
            "policy": policy_value(policy),
            "max_instructions": MAX_INSTRUCTIONS,
            "warmup_instructions": WARMUP_INSTRUCTIONS,
            "seed": SEED,
            "sample_interval": SAMPLE_INTERVAL,
        },
        "sha256": hashlib.sha256(canonical(payload).encode()).hexdigest(),
        "result": payload,
    }


def fixture_path(workload: str, policy) -> pathlib.Path:
    return GOLDEN_DIR / f"{workload}__{policy_value(policy)}.json"


def grid_cells():
    """Every (workload, policy) cell in the golden grid."""
    for workload in ALL_WORKLOADS:
        for policy in POLICIES:
            yield workload, policy
    for workload in ZOO_WORKLOADS:
        for policy in ZOO_POLICIES:
            yield workload, policy


#: Figure-render fixtures: every ``FIGURES`` entry rendered on a
#: two-workload arena at a tiny budget, pinned byte for byte.
FIGURE_DIR = ROOT / "tests" / "data" / "figures"
FIGURE_WORKLOADS = ("mcf", "swim")
FIGURE_MAX_INSTRUCTIONS = 3_000
FIGURE_WARMUP = 1_000


def render_figure(name: str, engine, fast: bool = True) -> str:
    """One figure's fixture text: its ``render()`` plus a newline, the
    same bytes a bench writes to ``benchmarks/results/<name>.txt``."""
    result = run_figure(
        FIGURES[name], FIGURE_WORKLOADS, FIGURE_MAX_INSTRUCTIONS,
        FIGURE_WARMUP, engine, fast,
    )
    return result.render() + "\n"


def write_figure_fixtures() -> None:
    FIGURE_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        engine = ExperimentEngine(cache=ResultCache(tmp), checkpoints=None)
        for name in FIGURES:
            path = FIGURE_DIR / f"{name}.txt"
            path.write_text(render_figure(name, engine))
            print(f"wrote {path.relative_to(ROOT)}")


def main() -> int:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for workload, policy in grid_cells():
        fixture = generate_cell(workload, policy)
        path = fixture_path(workload, policy)
        path.write_text(json.dumps(fixture, indent=1) + "\n")
        print(f"wrote {path.relative_to(ROOT)}  "
              f"sha256={fixture['sha256'][:12]}")
    write_figure_fixtures()
    return 0


if __name__ == "__main__":
    sys.exit(main())
