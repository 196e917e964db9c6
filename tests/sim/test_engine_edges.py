"""Edge cases of the engine's run-control semantics."""

import pytest

from repro.sim.engine import Engine


class TestHorizonBoundaries:
    def test_event_exactly_at_horizon_deferred(self):
        """An event AT the horizon belongs to the next window.

        ``run(until=h)`` fires strictly-less-than ``h``, so successive
        horizons ``h1 < h2 < ...`` fire every event exactly once, in the
        window ``[h_{k-1}, h_k)`` containing it. (Regression: the general and
        sampled loops used to disagree on this boundary.)
        """
        eng = Engine()
        fired = []
        eng.at(50.0, fired.append, "x")
        stats = eng.run(until=50.0)
        assert fired == []
        assert stats.horizon_reached
        assert eng.now == 50.0
        eng.run(until=50.0 + 1e-9)
        assert fired == ["x"]

    def test_event_just_after_horizon_deferred(self):
        eng = Engine()
        fired = []
        eng.at(50.0 + 1e-9, fired.append, "x")
        stats = eng.run(until=50.0)
        assert fired == []
        assert stats.horizon_reached
        assert eng.pending == 1

    def test_boundary_agrees_between_general_and_window_loops(self):
        """Horizon runs with and without ``max_events`` fire the same
        strictly-less-than boundary set."""
        for kwargs in ({}, {"max_events": 100}):
            eng = Engine()
            fired = []
            for t in (10.0, 50.0, 50.0, 90.0):
                eng.at(t, fired.append, t)
            eng.run(until=50.0, **kwargs)
            assert fired == [10.0]
            eng.run(until=90.0, **kwargs)
            assert fired == [10.0, 50.0, 50.0]
            eng.run(**kwargs)
            assert fired == [10.0, 50.0, 50.0, 90.0]

    def test_wheel_event_at_horizon_deferred(self):
        eng = Engine()
        fired = []
        eng.timer_at(50.0, fired.append, "x")
        stats = eng.run(until=50.0)
        assert fired == []
        assert stats.horizon_reached
        assert eng.pending == 1
        eng.run()
        assert fired == ["x"]

    def test_last_event_time_not_advanced_to_horizon(self):
        eng = Engine()
        eng.at(10.0, lambda: None)
        eng.at(200.0, lambda: None)
        stats = eng.run(until=100.0)
        assert stats.last_event_time == 10.0
        assert stats.end_time == 100.0

    def test_successive_horizons(self):
        eng = Engine()
        fired = []
        for t in (10.0, 20.0, 30.0):
            eng.at(t, fired.append, t)
        eng.run(until=15.0)
        assert fired == [10.0]
        eng.run(until=25.0)
        assert fired == [10.0, 20.0]
        eng.run()
        assert fired == [10.0, 20.0, 30.0]

    def test_horizon_with_empty_queue(self):
        eng = Engine()
        stats = eng.run(until=100.0)
        assert stats.events_fired == 0
        # With nothing to do the clock does not jump to the horizon.
        assert eng.now == 0.0

    def test_queue_drains_before_horizon(self):
        """The clock is parked at ``until`` only when an event is left
        queued at or past it; a queue that drains first leaves the clock
        at the last fired event."""
        eng = Engine()
        fired = []
        eng.after(5.0, fired.append, "x")
        stats = eng.run(until=10.0)
        assert fired == ["x"]
        assert not stats.horizon_reached
        assert eng.now == 5.0
        assert stats.end_time == stats.last_event_time == 5.0

    def test_clock_does_not_retreat_after_horizon(self):
        eng = Engine()
        eng.at(200.0, lambda: None)
        eng.run(until=100.0)
        assert eng.now == 100.0
        eng.run()
        assert eng.now == 200.0


class TestRequeuedEventIdentity:
    def test_deferred_event_not_duplicated(self):
        eng = Engine()
        count = [0]
        eng.at(100.0, lambda: count.__setitem__(0, count[0] + 1))
        eng.run(until=50.0)
        eng.run(until=75.0)
        eng.run()
        assert count[0] == 1

    def test_cancel_after_defer_still_works(self):
        """Handles survive horizon deferral: run() never pops an event
        beyond the horizon, so the handle still refers to the queued
        event and cancelling it really cancels it."""
        eng = Engine()
        fired = []
        handle = eng.at(100.0, fired.append, "x")
        eng.at(200.0, fired.append, "y")
        eng.run(until=50.0)
        eng.cancel(handle)
        assert eng.pending == 1
        eng.run()
        assert fired == ["y"]


class TestZeroDurationChains:
    def test_many_zero_delay_events_same_time(self):
        eng = Engine()
        order = []

        def chain(n):
            order.append(n)
            if n:
                eng.after(0.0, chain, n - 1)

        eng.after(0.0, chain, 100)
        eng.run(max_events=500)
        assert order == list(range(100, -1, -1))
        assert eng.now == 0.0
