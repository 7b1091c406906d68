"""The durable job journal: append/recover round-trips, torn-write and
corruption tolerance, atomic rotation, and engine integration."""

from __future__ import annotations

import json

import pytest

from repro.errors import JournalError
from repro.harness.engine import ExperimentEngine, make_job
from repro.harness.journal import (
    EVENTS,
    JobJournal,
    job_key,
)
from repro.logutil import reset_logging

BUDGET = 2_000
WARMUP = 200


def _job(workload="art", **overrides):
    kwargs = dict(
        max_instructions=BUDGET, warmup_instructions=WARMUP,
    )
    kwargs.update(overrides)
    return make_job(workload, **kwargs)


class TestAppendRecover:
    def test_round_trip_reconstructs_job_states(self, tmp_path):
        journal = JobJournal(tmp_path)
        job = _job()
        key = job_key(job.spec())
        journal.append("sweep", argv=["figure", "5"])
        journal.append("submit", key=key, job=job.to_dict())
        journal.append("start", key=key)
        journal.append("done", key=key, elapsed_s=1.5)
        state = journal.recover()
        assert state.records == 4
        assert state.skipped == 0
        assert state.sweep == {"argv": ["figure", "5"]}
        record = state.jobs[key]
        assert record.state == "done"
        assert record.finished
        assert record.elapsed_s == 1.5
        assert record.job == job.to_dict()
        assert state.unfinished() == []

    def test_unfinished_jobs_surface_for_resume(self, tmp_path):
        journal = JobJournal(tmp_path)
        done, stuck = _job("art"), _job("dot")
        for job in (done, stuck):
            journal.append(
                "submit", key=job_key(job.spec()), job=job.to_dict()
            )
        journal.append("start", key=job_key(done.spec()))
        journal.append("done", key=job_key(done.spec()), elapsed_s=0.1)
        journal.append("start", key=job_key(stuck.spec()))
        state = journal.recover()
        pending = state.unfinished()
        assert [r.key for r in pending] == [job_key(stuck.spec())]
        assert pending[0].state == "running"

    def test_reclaim_counts_strikes_and_requeues(self, tmp_path):
        journal = JobJournal(tmp_path)
        key = job_key(_job().spec())
        journal.append("submit", key=key, job=_job().to_dict())
        journal.append("start", key=key)
        journal.append("reclaimed", key=key, reason="WorkerCrashError")
        journal.append("start", key=key)
        journal.append("reclaimed", key=key, reason="LeaseExpiredError")
        state = journal.recover()
        record = state.jobs[key]
        assert record.state == "submitted"
        assert record.strikes == 2
        assert not record.finished

    def test_unknown_event_raises(self, tmp_path):
        journal = JobJournal(tmp_path)
        with pytest.raises(JournalError, match="unknown journal event"):
            journal.append("vanished", key="k")

    def test_sequence_continues_across_reopen(self, tmp_path):
        first = JobJournal(tmp_path)
        seq = first.append("sweep", argv=[])
        first.close()
        second = JobJournal(tmp_path)
        assert second.append("interrupted") == seq + 1


class TestCorruptionTolerance:
    def _populated(self, tmp_path) -> JobJournal:
        journal = JobJournal(tmp_path)
        for name in ("art", "dot"):
            job = _job(name)
            key = job_key(job.spec())
            journal.append("submit", key=key, job=job.to_dict())
            journal.append("start", key=key)
            journal.append("done", key=key, elapsed_s=0.2)
        journal.close()
        return journal

    def test_torn_tail_recovers_verified_prefix(self, tmp_path):
        journal = self._populated(tmp_path)
        whole = journal.path.read_text()
        lines = whole.splitlines()
        # Tear the final record mid-write, exactly as a crash would.
        torn = "\n".join(lines[:-1] + [lines[-1][: len(lines[-1]) // 2]])
        journal.path.write_text(torn)
        state = JobJournal(tmp_path).recover()
        assert state.skipped == 1
        assert state.records == len(lines) - 1
        # The torn record was 'dot's done: it recovers as unfinished.
        assert len(state.unfinished()) == 1

    def test_mid_file_bit_rot_skips_only_that_record(self, tmp_path):
        journal = self._populated(tmp_path)
        lines = journal.path.read_text().splitlines()
        # Flip one byte inside the second record's payload.
        lines[1] = lines[1].replace('"event"', '"Event"', 1)
        journal.path.write_text("\n".join(lines) + "\n")
        state = JobJournal(tmp_path).recover()
        assert state.skipped == 1
        assert state.records == len(lines) - 1

    def test_checksum_guards_against_tamper(self, tmp_path):
        journal = self._populated(tmp_path)
        lines = journal.path.read_text().splitlines()
        record = json.loads(lines[0])
        record["data"] = {"argv": ["forged"]}  # sum now stale
        lines[0] = json.dumps(record, sort_keys=True)
        journal.path.write_text("\n".join(lines) + "\n")
        state = JobJournal(tmp_path).recover()
        assert state.skipped == 1

    def test_garbage_lines_and_blank_lines_are_skipped(self, tmp_path):
        journal = self._populated(tmp_path)
        with open(journal.path, "a", encoding="utf-8") as fh:
            fh.write("\n{not json\n[1,2]\n")
        state = JobJournal(tmp_path).recover()
        assert state.skipped == 2  # blank line is not even counted
        assert len(state.jobs) == 2

    def test_missing_file_recovers_empty(self, tmp_path):
        state = JobJournal(tmp_path).recover()
        assert state.jobs == {}
        assert state.records == 0

    def test_skip_warning_names_byte_offset_and_counts(
        self, tmp_path, caplog
    ):
        journal = self._populated(tmp_path)
        raw = journal.path.read_bytes()
        lines = raw.split(b"\n")
        # The first torn line starts right after the intact prefix.
        expected_offset = len(b"\n".join(lines[:2])) + 1
        lines[2] = lines[2][: len(lines[2]) // 2]
        journal.path.write_bytes(b"\n".join(lines))
        # A prior CLI test may have configured the repro logger tree
        # with propagate=False; restore propagation so caplog sees it.
        reset_logging()
        with caplog.at_level("WARNING", logger="repro.journal"):
            state = JobJournal(tmp_path).recover()
        assert state.first_skipped_offset == expected_offset
        messages = [
            r.getMessage() for r in caplog.records
            if "torn or corrupt" in r.getMessage()
        ]
        assert messages
        assert "dropped 1 torn or corrupt line(s)" in messages[-1]
        assert f"first at byte offset {expected_offset}" in messages[-1]

    def test_undecodable_bytes_are_skipped_with_offset(self, tmp_path):
        journal = self._populated(tmp_path)
        with open(journal.path, "ab") as fh:
            fh.write(b"\xff\xfe garbage bytes\n")
        state = JobJournal(tmp_path).recover()
        assert state.skipped == 1
        assert state.first_skipped_offset is not None
        assert len(state.jobs) == 2

    def test_clean_log_has_no_skip_offset(self, tmp_path):
        journal = self._populated(tmp_path)
        state = journal.recover()
        assert state.skipped == 0
        assert state.first_skipped_offset is None


class TestEngineIntegration:
    def test_engine_journals_lifecycle_and_cache_hits(self, tmp_path):
        journal = JobJournal(tmp_path / "j")
        engine = ExperimentEngine(journal=journal)
        job = _job()
        assert engine.run([job])[0].ok
        key = job_key(job.spec())
        state = journal.recover()
        assert state.jobs[key].state == "done"

        # A second engine over the same journal replays from cache and
        # records that as terminal too.
        second = ExperimentEngine(journal=JobJournal(tmp_path / "j"))
        outcome = second.run([job])[0]
        assert outcome.cached
        state = JobJournal(tmp_path / "j").recover()
        assert state.jobs[key].state == "done"

    def test_every_engine_event_is_a_known_event(self):
        for event in (
            "sweep", "submit", "cached", "start", "done",
            "failed", "reclaimed", "quarantined", "interrupted",
        ):
            assert event in EVENTS

    def test_job_key_excludes_code_version(self, monkeypatch):
        from repro.harness.cache import ENV_CODE_VERSION

        spec = _job().spec()
        monkeypatch.setenv(ENV_CODE_VERSION, "v1")
        first = job_key(spec)
        monkeypatch.setenv(ENV_CODE_VERSION, "v2")
        assert job_key(spec) == first
