"""Tests for the event queue and the helper-thread model."""

import pytest

from repro.trident.events import (
    DelinquentLoadEvent,
    EventQueue,
    HotTraceEvent,
)
from repro.trident.helper_thread import HelperThread, RegistrationStructure


class TestEventQueue:
    def test_fifo_order(self):
        q = EventQueue()
        a = HotTraceEvent(head_pc=1, directions=(True,), cycle=0.0)
        b = DelinquentLoadEvent(load_pc=2, trace_id=1, cycle=1.0)
        q.push(a)
        q.push(b)
        assert q.pop() is a
        assert q.pop() is b
        assert q.pop() is None

    def test_bounded_capacity_drops(self):
        q = EventQueue(capacity=2)
        for i in range(4):
            q.push(DelinquentLoadEvent(load_pc=i, trace_id=1, cycle=0.0))
        assert len(q) == 2
        assert q.stats.dropped == 2
        assert q.stats.enqueued == 2

    def test_kind_counting(self):
        q = EventQueue()
        q.push(HotTraceEvent(head_pc=1, directions=(True,), cycle=0.0))
        q.push(DelinquentLoadEvent(load_pc=2, trace_id=1, cycle=0.0))
        assert q.stats.hot_trace_events == 1
        assert q.stats.delinquent_load_events == 1


class TestHelperThread:
    def test_schedule_and_apply(self):
        helper = HelperThread(startup_cycles=2000)
        applied = []
        helper.schedule(100.0, 400.0, lambda: applied.append(1), "repair")
        assert not helper.idle
        assert helper.busy_until == 2500.0
        # Not done yet.
        assert not helper.tick(2000.0)
        assert applied == []
        # Done.
        assert helper.tick(2500.0)
        assert applied == [1]
        assert helper.idle

    def test_double_schedule_rejected(self):
        helper = HelperThread(2000)
        helper.schedule(0.0, 0.0, lambda: None, "form")
        with pytest.raises(RuntimeError):
            helper.schedule(0.0, 0.0, lambda: None, "form")

    def test_busy_accounting(self):
        helper = HelperThread(2000)
        helper.schedule(0.0, 1000.0, lambda: None, "insert")
        helper.tick(10_000.0)
        helper.schedule(10_000.0, 0.0, lambda: None, "repair")
        helper.tick(20_000.0)
        assert helper.total_busy_cycles == 3000.0 + 2000.0
        assert helper.jobs_run == 2
        assert helper.jobs_by_kind == {"insert": 1, "repair": 1}

    def test_active_fraction(self):
        helper = HelperThread(2000)
        helper.schedule(0.0, 0.0, lambda: None, "form")
        helper.tick(10_000.0)
        assert helper.active_fraction(100_000.0) == pytest.approx(0.02)
        assert helper.active_fraction(0.0) == 0.0
        assert helper.active_fraction(100.0) == 1.0  # clamped

    def test_registration_structure_fields(self):
        reg = RegistrationStructure()
        # The paper's structure: entry point, SP, GDP, code-cache pointer,
        # priority (helpers run below the main thread).
        assert hasattr(reg, "helper_entry_point")
        assert hasattr(reg, "stack_pointer")
        assert hasattr(reg, "global_data_pointer")
        assert hasattr(reg, "code_cache_pointer")
        assert reg.priority == 1
