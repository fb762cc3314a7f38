"""Tests for the discrete-event engine and clock."""

import pytest

from repro.errors import SimulationError
from repro.simulation.clock import Clock


class TestClock:
    def test_starts_at_zero(self):
        assert Clock().now == 0.0

    def test_custom_start(self):
        assert Clock(100.0).now == 100.0

    def test_advances(self):
        clock = Clock()
        clock.advance_to(5.0)
        assert clock.now == 5.0

    def test_rejects_backwards(self):
        clock = Clock(10.0)
        with pytest.raises(SimulationError):
            clock.advance_to(5.0)

    def test_advance_to_same_time_ok(self):
        clock = Clock(10.0)
        clock.advance_to(10.0)
        assert clock.now == 10.0


class TestScheduling:
    def test_schedule_and_run(self, engine):
        fired = []
        engine.schedule_at(5.0, lambda: fired.append(engine.clock.now))
        engine.run_until(10.0)
        assert fired == [5.0]

    def test_clock_ends_at_run_until_time(self, engine):
        engine.run_until(42.0)
        assert engine.clock.now == 42.0

    def test_events_run_in_time_order(self, engine):
        order = []
        engine.schedule_at(3.0, lambda: order.append("b"))
        engine.schedule_at(1.0, lambda: order.append("a"))
        engine.schedule_at(7.0, lambda: order.append("c"))
        engine.run_until(10.0)
        assert order == ["a", "b", "c"]

    def test_same_time_priority_order(self, engine):
        order = []
        engine.schedule_at(1.0, lambda: order.append("low"), priority=10)
        engine.schedule_at(1.0, lambda: order.append("high"), priority=0)
        engine.run_until(2.0)
        assert order == ["high", "low"]

    def test_same_time_same_priority_fifo(self, engine):
        order = []
        engine.schedule_at(1.0, lambda: order.append(1))
        engine.schedule_at(1.0, lambda: order.append(2))
        engine.schedule_at(1.0, lambda: order.append(3))
        engine.run_until(2.0)
        assert order == [1, 2, 3]

    def test_rejects_scheduling_in_past(self, engine):
        engine.run_until(10.0)
        with pytest.raises(SimulationError):
            engine.schedule_at(5.0, lambda: None)

    def test_schedule_after(self, engine):
        engine.run_until(10.0)
        fired = []
        engine.schedule_after(5.0, lambda: fired.append(engine.clock.now))
        engine.run_until(20.0)
        assert fired == [15.0]

    def test_schedule_after_rejects_negative_delay(self, engine):
        with pytest.raises(SimulationError):
            engine.schedule_after(-1.0, lambda: None)

    def test_event_scheduling_from_action(self, engine):
        fired = []

        def chain():
            fired.append(engine.clock.now)
            if len(fired) < 3:
                engine.schedule_after(1.0, chain)

        engine.schedule_at(0.0, chain)
        engine.run_until(10.0)
        assert fired == [0.0, 1.0, 2.0]

    def test_events_beyond_horizon_stay_queued(self, engine):
        fired = []
        engine.schedule_at(100.0, lambda: fired.append(1))
        engine.run_until(50.0)
        assert fired == []
        assert engine.pending_count == 1
        engine.run_until(150.0)
        assert fired == [1]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, engine):
        fired = []
        event = engine.schedule_at(5.0, lambda: fired.append(1))
        event.cancel()
        engine.run_until(10.0)
        assert fired == []

    def test_pending_count_excludes_cancelled(self, engine):
        event = engine.schedule_at(5.0, lambda: None)
        engine.schedule_at(6.0, lambda: None)
        event.cancel()
        assert engine.pending_count == 1


class TestRunAll:
    def test_drains_queue(self, engine):
        fired = []
        for t in (1.0, 2.0, 3.0):
            engine.schedule_at(t, lambda t=t: fired.append(t))
        engine.run_all()
        assert fired == [1.0, 2.0, 3.0]

    def test_runaway_protection(self, engine):
        def forever():
            engine.schedule_after(1.0, forever)

        engine.schedule_at(0.0, forever)
        with pytest.raises(SimulationError):
            engine.run_all(max_events=100)

    def test_step_returns_false_when_empty(self, engine):
        assert engine.step() is False

    def test_events_executed_counter(self, engine):
        engine.schedule_at(1.0, lambda: None)
        engine.schedule_at(2.0, lambda: None)
        engine.run_until(5.0)
        assert engine.events_executed == 2

    def test_run_until_rejects_past(self, engine):
        engine.run_until(10.0)
        with pytest.raises(SimulationError):
            engine.run_until(5.0)

    def test_peek_next_time(self, engine):
        assert engine.peek_next_time() is None
        engine.schedule_at(7.0, lambda: None)
        assert engine.peek_next_time() == 7.0
