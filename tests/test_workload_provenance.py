"""Workload provenance: scenario/trace-sourced jobs must say so in spans.

Companion suite to the ``spans_cover_journal`` tests: the flight
recorder's ``run`` spans are the only artifact tying a committed result
back to its workload source.  A scenario result whose span claims to be
a builtin (or says nothing) is unreproducible — you cannot tell which
generated spec produced it.  ``workload_provenance_problems`` audits
that linkage; this suite pins it with synthetic span/journal pairs and
a real mixed builtin+scenario engine run.
"""

from __future__ import annotations

from repro.harness.cache import ResultCache
from repro.harness.engine import ExperimentEngine, make_job
from repro.harness.journal import JobJournal, job_key
from repro.obs.telemetry import (
    TelemetryHub,
    spans_cover_journal,
    workload_provenance_problems,
)
from repro.scenarios import CATALOG


def _state(tmp_path, jobs):
    journal = JobJournal(tmp_path / "journal")
    for job in jobs:
        key = job_key(job.spec())
        journal.append("submit", key=key, job=job.to_dict())
        journal.append("done", key=key, elapsed_s=0.1)
    journal.close()
    return journal.recover()


def _run_span(job, **fields):
    return {
        "type": "span", "name": "run",
        "job_key": job_key(job.spec()), "fields": fields,
    }


def _scenario_job():
    return make_job(CATALOG["stride-flip"], max_instructions=2_000)


def _builtin_job():
    return make_job("art", max_instructions=2_000)


class TestProvenanceAudit:
    def test_correct_provenance_passes(self, tmp_path):
        scen, builtin = _scenario_job(), _builtin_job()
        state = _state(tmp_path, [scen, builtin])
        spans = [
            _run_span(scen, source="scenario", workload="stride-flip"),
            _run_span(builtin, source="builtin", workload="art"),
        ]
        assert workload_provenance_problems(spans, state) == []

    def test_scenario_span_claiming_builtin_is_flagged(self, tmp_path):
        scen = _scenario_job()
        state = _state(tmp_path, [scen])
        spans = [_run_span(scen, source="builtin", workload="stride-flip")]
        problems = workload_provenance_problems(spans, state)
        assert any("scenario-sourced" in p for p in problems)

    def test_scenario_span_missing_workload_name_is_flagged(self, tmp_path):
        scen = _scenario_job()
        state = _state(tmp_path, [scen])
        spans = [_run_span(scen, source="scenario")]
        problems = workload_provenance_problems(spans, state)
        assert any("missing its workload name" in p for p in problems)

    def test_builtin_span_claiming_scenario_is_flagged(self, tmp_path):
        builtin = _builtin_job()
        state = _state(tmp_path, [builtin])
        spans = [_run_span(builtin, source="scenario", workload="art")]
        problems = workload_provenance_problems(spans, state)
        assert any("builtin workload" in p for p in problems)

    def test_legacy_builtin_span_without_source_passes(self, tmp_path):
        """Pre-provenance journals (earlier PRs) have run spans with no
        ``source`` field; those must not be retro-flagged."""
        builtin = _builtin_job()
        state = _state(tmp_path, [builtin])
        assert workload_provenance_problems(
            [_run_span(builtin, workload="art")], state
        ) == []

    def test_cache_hit_jobs_need_no_run_span(self, tmp_path):
        """A cached job never ran, so there is nothing to audit."""
        scen = _scenario_job()
        state = _state(tmp_path, [scen])
        assert workload_provenance_problems([], state) == []


class TestEngineEmitsProvenance:
    def test_mixed_fleet_run_has_full_provenance(self, tmp_path):
        """The satellite's end-to-end leg: a real engine run over a
        builtin and a catalog scenario leaves spans that pass both the
        coverage audit and the provenance audit."""
        journal = JobJournal(tmp_path / "journal")
        hub = TelemetryHub(out_dir=tmp_path / "journal")
        engine = ExperimentEngine(
            cache=ResultCache(tmp_path / "cache"),
            journal=journal,
            telemetry=hub,
        )
        jobs = [
            make_job("art", max_instructions=2_000,
                     warmup_instructions=200),
            make_job("scenario:stride-flip", max_instructions=2_000,
                     warmup_instructions=200),
        ]
        outcomes = engine.run(jobs)
        assert all(o.result is not None for o in outcomes)

        state = journal.recover()
        spans = hub.spans()
        assert spans_cover_journal(spans, state) == []
        assert workload_provenance_problems(spans, state) == []

        sources = {
            s["fields"]["workload"]: s["fields"]["source"]
            for s in spans
            if s.get("name") == "run"
        }
        assert sources == {"art": "builtin", "stride-flip": "scenario"}
