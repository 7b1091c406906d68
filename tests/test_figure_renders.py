"""Figure-render fixtures: every figure and ablation renders byte-for-byte.

``tools/update_golden.py`` pins the rendered table of every ``FIGURES``
entry (paper figures, ablations and studies) on a two-workload arena at
a tiny budget in ``tests/data/figures/<name>.txt``.  This suite
re-renders each one through a single module-scoped engine (so the
baselines the figures share are simulated once) and compares the bytes,
so a change to the experiment layer's job grids, reducers or table
layout cannot silently shift any figure.

Regenerate after an intentional change with::

    PYTHONPATH=src python tools/update_golden.py
"""

from __future__ import annotations

import importlib.util
import pathlib
import sys

import pytest

from repro.harness.cache import ResultCache
from repro.harness.engine import ExperimentEngine
from repro.harness.experiments import FIGURES

ROOT = pathlib.Path(__file__).parent.parent

_spec = importlib.util.spec_from_file_location(
    "update_golden", ROOT / "tools" / "update_golden.py"
)
ug = importlib.util.module_from_spec(_spec)
sys.modules.setdefault("update_golden", ug)
_spec.loader.exec_module(ug)


@pytest.fixture(scope="module")
def engine(tmp_path_factory):
    # Checkpoint capture would double the suite's time and cannot change
    # a result (tests/test_checkpoint_equivalence.py proves that).
    return ExperimentEngine(
        cache=ResultCache(tmp_path_factory.mktemp("figures") / "cache"),
        checkpoints=None,
    )


def test_every_figure_has_a_fixture():
    pinned = {p.stem for p in ug.FIGURE_DIR.glob("*.txt")}
    assert pinned == set(FIGURES)


@pytest.mark.parametrize("name", list(FIGURES))
def test_render_matches_fixture(name, engine):
    expected = (ug.FIGURE_DIR / f"{name}.txt").read_text()
    assert ug.render_figure(name, engine) == expected


def test_ablation_honours_slow_interpreter(engine, monkeypatch):
    """``fast=False`` reaches every job of an ablation (the reference
    step loop, under its own cache keys) and renders the same bytes."""
    submitted = []
    run = engine.run
    monkeypatch.setattr(
        engine, "run",
        lambda jobs, **kw: submitted.extend(jobs) or run(jobs, **kw),
    )
    name = "ablation_phase_detection"
    expected = (ug.FIGURE_DIR / f"{name}.txt").read_text()
    assert ug.render_figure(name, engine, fast=False) == expected
    assert submitted and not any(job.config.fast for job in submitted)
