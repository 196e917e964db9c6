"""Unit tests for the DES engine."""

import pytest

from repro.errors import SchedulingError, SimulationError
from repro.sim.engine import Engine
from repro.sim.trace import Tracer


class TestScheduling:
    def test_after_advances_clock(self):
        eng = Engine()
        fired = []
        eng.after(100.0, fired.append, 1)
        stats = eng.run()
        assert fired == [1]
        assert eng.now == 100.0
        assert stats.events_fired == 1
        assert stats.end_time == 100.0

    def test_at_absolute_time(self):
        eng = Engine()
        seen = []
        eng.at(50.0, lambda: seen.append(eng.now))
        eng.run()
        assert seen == [50.0]

    def test_past_scheduling_rejected(self):
        eng = Engine()
        eng.after(10.0, lambda: None)
        eng.run()
        with pytest.raises(SchedulingError):
            eng.at(5.0, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(SchedulingError):
            Engine().after(-1.0, lambda: None)

    def test_fifo_among_simultaneous_events(self):
        eng = Engine()
        order = []
        for i in range(5):
            eng.at(1.0, order.append, i)
        eng.run()
        assert order == [0, 1, 2, 3, 4]

    def test_events_fire_in_time_order(self):
        eng = Engine()
        order = []
        eng.at(30.0, order.append, "c")
        eng.at(10.0, order.append, "a")
        eng.at(20.0, order.append, "b")
        eng.run()
        assert order == ["a", "b", "c"]

    def test_handler_can_schedule_more(self):
        eng = Engine()
        seen = []

        def chain(n):
            seen.append((eng.now, n))
            if n > 0:
                eng.after(10.0, chain, n - 1)

        eng.after(0.0, chain, 3)
        eng.run()
        assert seen == [(0.0, 3), (10.0, 2), (20.0, 1), (30.0, 0)]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        eng = Engine()
        fired = []
        handle = eng.after(10.0, fired.append, "x")
        eng.cancel(handle)
        eng.run()
        assert fired == []
        assert eng.pending == 0

    def test_double_cancel_is_safe(self):
        eng = Engine()
        handle = eng.after(10.0, lambda: None)
        eng.cancel(handle)
        eng.cancel(handle)
        assert eng.pending == 0


class TestRunControl:
    def test_until_horizon_preserves_future_events(self):
        eng = Engine()
        fired = []
        eng.after(10.0, fired.append, "early")
        eng.after(100.0, fired.append, "late")
        stats = eng.run(until=50.0)
        assert fired == ["early"]
        assert stats.horizon_reached
        assert eng.now == 50.0
        assert eng.pending == 1
        eng.run()
        assert fired == ["early", "late"]

    def test_stop_from_handler(self):
        eng = Engine()
        fired = []
        eng.after(1.0, lambda: (fired.append(1), eng.stop()))
        eng.after(2.0, fired.append, 2)
        stats = eng.run()
        assert stats.stopped_early
        assert fired == [1]
        assert eng.pending == 1

    def test_max_events_guard(self):
        eng = Engine()

        def loop():
            eng.after(1.0, loop)

        eng.after(0.0, loop)
        with pytest.raises(SimulationError, match="max_events"):
            eng.run(max_events=100)

    def test_run_not_reentrant(self):
        eng = Engine()
        err = {}

        def reenter():
            try:
                eng.run()
            except SimulationError as exc:
                err["e"] = exc

        eng.after(0.0, reenter)
        eng.run()
        assert "e" in err

    def test_reset(self):
        eng = Engine()
        eng.after(5.0, lambda: None)
        eng.run()
        eng.reset()
        assert eng.now == 0.0
        assert eng.pending == 0

    def test_empty_run(self):
        stats = Engine().run()
        assert stats.events_fired == 0
        assert stats.end_time == 0.0


class TestDeterminism:
    def test_identical_runs_identical_traces(self):
        def build():
            tracer = Tracer(["event"])
            eng = Engine(tracer=tracer)
            for i in range(20):
                eng.at(float(i % 7), lambda: None)
            eng.run()
            return [f for _, f in tracer.records("event")]

        assert build() == build()
