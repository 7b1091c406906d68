"""Integration tests: observability against live simulations.

The two invariants that make the layer trustworthy:

* **zero perturbation** — a run with an observer attached (sampling
  included) is bit-for-bit identical to a run without one;
* **determinism** — two observed runs of the same configuration export
  byte-identical JSONL event streams.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.config import PrefetchPolicy
from repro.harness.report import render_timeline
from repro.harness.runner import run_simulation
from repro.obs import Observer, validate_chrome_trace, write_jsonl

WORKLOAD = "mcf"
BUDGET = 40_000
WARMUP = 10_000


def _observed_run(sample_interval=5_000, **kwargs):
    obs = Observer(sample_interval=sample_interval)
    result = run_simulation(
        WORKLOAD,
        max_instructions=BUDGET,
        warmup_instructions=WARMUP,
        observer=obs,
        **kwargs,
    )
    return result, obs


class TestZeroPerturbation:
    def test_enabled_run_matches_disabled_bit_for_bit(self):
        plain = run_simulation(
            WORKLOAD, max_instructions=BUDGET, warmup_instructions=WARMUP
        )
        observed, obs = _observed_run()
        assert observed.ipc == plain.ipc
        assert observed.cycles == plain.cycles
        assert observed.instructions == plain.instructions
        assert observed.breakdown() == plain.breakdown()
        assert obs.ring.total_emitted > 0  # it really was observing

    def test_disabled_overhead_within_tolerance(self):
        """The disabled fast path (one attribute check per hook) must not
        cost measurably more than the seed's unhooked code.  Wall-clock
        comparison with generous slack: the strong guarantee is the
        bit-for-bit test above; this one catches accidental work (dict
        lookups, string formatting) on the None path."""
        def timed(**kwargs):
            t0 = time.perf_counter()
            run_simulation(WORKLOAD, max_instructions=50_000, **kwargs)
            return time.perf_counter() - t0

        # Interleave the two configurations so slow host drift (thermal
        # throttling, co-tenant load) hits both sides equally, and take
        # the best of each: scheduler jitter only ever adds time.
        disabled_times, enabled_times = [], []
        for _ in range(5):
            disabled_times.append(timed())
            enabled_times.append(timed(observer=Observer()))
        disabled = min(disabled_times)
        enabled = min(enabled_times)
        # Disabled must beat enabled-with-full-tracing plus 25% slack --
        # if the None path were doing real work the two would diverge
        # far beyond that.  (Generous slack because the decoded fast
        # path made these runs short enough that noise is a large
        # fraction of each measurement; the bit-for-bit test above is
        # the strong guarantee.)
        assert disabled <= enabled * 1.25

    def test_sampling_does_not_perturb_timing(self):
        plain = run_simulation(WORKLOAD, max_instructions=BUDGET)
        sampled = run_simulation(
            WORKLOAD, max_instructions=BUDGET, sample_interval=4_000
        )
        assert sampled.ipc == plain.ipc
        assert sampled.cycles == plain.cycles


class TestDeterminism:
    def test_two_runs_export_identical_jsonl(self, tmp_path):
        paths = []
        for i in range(2):
            _result, obs = _observed_run()
            path = tmp_path / f"run{i}.jsonl"
            write_jsonl(obs.events(), str(path))
            paths.append(path)
        a, b = (p.read_bytes() for p in paths)
        assert a == b
        assert a  # non-empty

    def test_snapshots_identical(self):
        snaps = [json.dumps(_observed_run()[1].snapshot(), sort_keys=True)
                 for _ in range(2)]
        assert snaps[0] == snaps[1]


class TestSampling:
    def test_sample_count_and_series(self):
        result, obs = _observed_run(sample_interval=5_000)
        assert len(result.samples) == BUDGET // 5_000
        # Windows tile the measured region exactly.
        assert sum(s["instructions"] for s in result.samples) == BUDGET
        assert result.samples[-1]["end_instruction"] == WARMUP + BUDGET
        ipcs = obs.sampler.series("ipc")
        assert len(ipcs) == len(result.samples)
        assert all(ipc > 0 for ipc in ipcs)
        # Serialisable and carried into the result dict.
        assert len(result.to_dict()["samples"]) == len(result.samples)

    def test_sample_events_emitted(self):
        _result, obs = _observed_run(sample_interval=10_000)
        kinds = [e.kind for e in obs.events() if e.kind == "sample"]
        assert len(kinds) == BUDGET // 10_000


class TestEventStream:
    def test_repair_vocabulary_present(self):
        result, obs = _observed_run()
        kinds = {e.kind for e in obs.events()}
        assert {"fill", "trace_link", "trace_enter", "dl_event",
                "insert", "repair", "helper_begin", "helper_end"} <= kinds
        assert result.repairs_applied > 0

    def test_repair_events_stamped_at_job_completion(self):
        _result, obs = _observed_run()
        ends = {
            e.cycle for e in obs.events() if e.kind == "helper_end"
        }
        repair_cycles = [
            e.cycle for e in obs.events() if e.kind == "repair"
        ]
        assert repair_cycles
        assert all(c in ends for c in repair_cycles)

    def test_timelines_track_distance_search(self):
        result, obs = _observed_run()
        timelines = obs.timelines.timelines()
        assert timelines
        trajectory = timelines[0].distance_trajectory()
        # Starts at the self-repairing initial distance and climbs.
        assert trajectory[0][1] == 1
        assert trajectory[-1][1] > 1
        cycles = [c for c, _d in trajectory]
        assert cycles == sorted(cycles)
        text = render_timeline(obs.timelines.to_dicts())
        assert "insert" in text and "repair" in text

    def test_metrics_agree_with_result(self):
        result, obs = _observed_run()
        snap = obs.metrics.snapshot()
        assert snap["counters"]["optimizer.repairs"] == (
            result.repairs_applied
        )
        assert snap["counters"]["trident.dl_events"] > 0
        hist = snap["histograms"]["memory.load_latency"]
        assert hist["count"] > 0
        assert snap["gauges"]["run.ipc"] == pytest.approx(result.ipc)


class TestMeasurementReset:
    def test_hierarchy_stats_object_survives_warmup(self):
        """The warmup reset must preserve object identity (components
        cache references to the stats holders)."""
        from repro.config import SimulationConfig
        from repro.harness.runner import Simulation

        sim = Simulation(
            WORKLOAD,
            SimulationConfig(
                max_instructions=5_000, warmup_instructions=2_000
            ),
        )
        before = sim.hierarchy.stats
        core_before = sim.core.stats
        sim.run()
        assert sim.hierarchy.stats is before
        assert sim.core.stats is core_before

    def test_reset_zeroes_load_latency_accumulator(self):
        from repro.memory.stats import MemoryStats

        stats = MemoryStats()
        stats.total_load_latency = 123
        stats.stores = 4
        stats.reset_measurement()
        assert stats.total_load_latency == 0
        assert stats.stores == 0


class TestCLI:
    def test_run_writes_trace_and_metrics(self, tmp_path, capsys):
        from repro.__main__ import main

        trace = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.json"
        code = main([
            "run", WORKLOAD,
            "--instructions", "20000", "--warmup", "5000",
            "--sample-interval", "5000",
            "--trace-out", str(trace),
            "--metrics-out", str(metrics),
        ])
        assert code == 0
        payload = json.loads(trace.read_text())
        assert validate_chrome_trace(payload) == []
        snapshot = json.loads(metrics.read_text())
        assert {"metrics", "ring", "timelines", "samples"} <= set(snapshot)

    def test_run_jsonl_suffix_writes_jsonl(self, tmp_path):
        from repro.__main__ import main

        out = tmp_path / "trace.jsonl"
        assert main([
            "run", WORKLOAD, "--instructions", "15000", "--warmup", "0",
            "--trace-out", str(out),
        ]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines
        assert all("kind" in json.loads(line) for line in lines)

    def test_timeline_subcommand(self, tmp_path, capsys):
        from repro.__main__ import main

        out = tmp_path / "timelines.jsonl"
        code = main([
            "timeline", WORKLOAD,
            "--instructions", "40000", "--warmup", "10000",
            "--json-out", str(out),
        ])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "repair" in stdout
        records = [
            json.loads(line)
            for line in out.read_text().strip().splitlines()
        ]
        assert records and all("steps" in r for r in records)

    def test_figure_trace_out_exports_fleet_trace(self, capsys, tmp_path):
        """Non-resilience figures write the stitched *fleet* trace:
        engine + workers on one timeline (resilience keeps its
        instrumented single-run trace)."""
        import json

        from repro.__main__ import main
        from repro.obs.export import validate_chrome_trace

        trace = tmp_path / "fleet.json"
        assert main([
            "figure", "5", "--trace-out", str(trace),
            "--workloads", WORKLOAD, "--instructions", "1000",
            "--warmup", "0",
        ]) == 0
        payload = json.loads(trace.read_text())
        assert validate_chrome_trace(payload) == []
        names = {e["name"] for e in payload["traceEvents"]}
        assert "commit" in names


class TestResilienceObservability:
    def test_resilience_exports_valid_trace(self, tmp_path):
        from repro.harness import experiments

        trace = tmp_path / "resilience.json"
        result = experiments.resilience_traced(
            workloads=[WORKLOAD],
            max_instructions=40_000,
            warmup=5_000,
            trace_out=str(trace),
        )
        assert result.rows
        payload = json.loads(trace.read_text())
        assert validate_chrome_trace(payload) == []
        names = {e.get("name") for e in payload["traceEvents"]}
        assert "fault" in names         # the injected phase shift
        assert "windowed IPC" in names  # the recovery counter track
        rendered = result.render()
        assert "recovery curves" in rendered
