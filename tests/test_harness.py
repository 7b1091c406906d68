"""Tests for the experiment harness (small budgets — shape only)."""

import pytest

from repro.config import PrefetchPolicy
from repro.harness.experiments import (
    FIGURES,
    bench_instructions,
    bench_warmup,
    bench_workloads,
    run_figure,
)
from repro.harness.runner import run_simulation

BUDGET = 15_000
WORKLOADS = ["swim"]


class TestEnvironmentKnobs:
    def test_instruction_knob(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_INSTRUCTIONS", "777")
        assert bench_instructions() == 777

    def test_warmup_knob(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_WARMUP", "888")
        assert bench_warmup() == 888

    def test_workload_knob(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_WORKLOADS", "mcf, art")
        assert bench_workloads() == ["mcf", "art"]

    def test_defaults(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_WORKLOADS", raising=False)
        assert len(bench_workloads()) == 14


class TestExperimentShapes:
    def test_fig2_rows_and_render(self):
        result = run_figure(
            FIGURES["fig2_hw_baseline"],
            workloads=WORKLOADS, max_instructions=BUDGET, warmup=0,
        )
        assert len(result.rows) == 1
        text = result.render()
        assert "swim" in text and "average" in text
        assert result.mean("speedup_8x8") > 0

    def test_fig5_rows_and_render(self):
        result = run_figure(
            FIGURES["fig5_policies"],
            workloads=WORKLOADS, max_instructions=BUDGET, warmup=0,
        )
        row = result.rows[0]
        assert set(row) == {
            "workload", "basic", "whole_object", "self_repairing",
        }
        assert "self-repairing" in result.render()

    def test_fig6_fractions_sum_to_one(self):
        result = run_figure(
            FIGURES["fig6_breakdown"],
            workloads=WORKLOADS, max_instructions=BUDGET, warmup=0,
        )
        row = result.rows[0]
        total = sum(v for k, v in row.items() if k != "workload")
        assert total == pytest.approx(1.0, abs=1e-6)


class TestRunnerResults:
    def test_speedup_over_self_is_one(self):
        a = run_simulation(
            "swim", policy=PrefetchPolicy.NONE, max_instructions=BUDGET
        )
        assert a.speedup_over(a) == pytest.approx(1.0)

    def test_warmup_excluded_from_interval(self):
        warm = run_simulation(
            "swim",
            policy=PrefetchPolicy.NONE,
            max_instructions=BUDGET,
            warmup_instructions=5_000,
        )
        assert warm.instructions == BUDGET

    def test_determinism(self):
        a = run_simulation(
            "swim", policy=PrefetchPolicy.SELF_REPAIRING,
            max_instructions=BUDGET,
        )
        b = run_simulation(
            "swim", policy=PrefetchPolicy.SELF_REPAIRING,
            max_instructions=BUDGET,
        )
        assert a.ipc == b.ipc
        assert a.breakdown() == b.breakdown()

    def test_miss_profile_keys_are_pcs(self):
        result = run_simulation(
            "swim", policy=PrefetchPolicy.NONE, max_instructions=BUDGET
        )
        profile = result.miss_profile()
        assert profile
        program_len = 30  # swim program is small
        assert all(isinstance(pc, int) for pc in profile)
