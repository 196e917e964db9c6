"""Property-based tests for the DES substrate."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Engine
from repro.sim.event import EV_SEQ, EV_TIME, Event
from repro.sim.queue import EventQueue

times = st.floats(min_value=0.0, max_value=1e9, allow_nan=False,
                  allow_infinity=False)


class TestQueueProperties:
    @given(st.lists(times, min_size=1, max_size=200))
    def test_pop_order_matches_sorted(self, ts):
        q = EventQueue()
        for i, t in enumerate(ts):
            q.push(Event(t, i, lambda: None, ()))
        popped = []
        while q:
            popped.append(q.pop()[EV_TIME])
        assert popped == sorted(ts)

    @given(
        st.lists(times, min_size=1, max_size=100),
        st.data(),
    )
    def test_cancellation_preserves_remaining_order(self, ts, data):
        q = EventQueue(compact_min=8)  # low floor: exercise auto-compaction
        events = [Event(t, i, lambda: None, ()) for i, t in enumerate(ts)]
        for e in events:
            q.push(e)
        to_cancel = data.draw(
            st.sets(st.integers(0, len(events) - 1), max_size=len(events))
        )
        for idx in to_cancel:
            q.cancel(events[idx])
        survivors = sorted(
            (e[EV_TIME], e[EV_SEQ])
            for i, e in enumerate(events)
            if i not in to_cancel
        )
        popped = []
        while q:
            e = q.pop()
            popped.append((e[EV_TIME], e[EV_SEQ]))
        assert popped == survivors

    @given(st.lists(st.tuples(times, times), min_size=1, max_size=50))
    def test_engine_clock_never_goes_backwards(self, pairs):
        eng = Engine()
        observed = []

        def record():
            observed.append(eng.now)

        for t0, dt in pairs:
            eng.at(t0, record)
        eng.run()
        assert observed == sorted(observed)


class TestEngineChaining:
    @given(st.integers(1, 50), st.floats(0.1, 100.0))
    @settings(max_examples=25)
    def test_chained_events_count(self, n, step):
        eng = Engine()
        count = [0]

        def tick(remaining):
            count[0] += 1
            if remaining > 1:
                eng.after(step, tick, remaining - 1)

        eng.after(0.0, tick, n)
        stats = eng.run()
        assert count[0] == n
        assert stats.events_fired == n
        assert eng.now <= (n - 1) * step + 1e-6


# ----------------------------------------------------------------------
# Wheel/heap determinism equivalence
# ----------------------------------------------------------------------
# Delays are multiples of 250 ns so exact deadline ties (and shared wheel
# slots) are common, and the script interleaves arms, cancels, and
# horizon-split runs — the workload shape of flush/retransmit timers.
arm_st = st.tuples(st.integers(0, 40), st.booleans())  # (delay/250ns, timer?)
step_st = st.tuples(
    st.integers(0, 8),                       # driver advance (x250 ns)
    st.lists(arm_st, max_size=5),            # arms this step
    st.lists(st.integers(0, 40), max_size=4),  # cancel targets (arm index)
)
script_st = st.lists(step_st, min_size=1, max_size=25)
horizons_st = st.lists(st.integers(1, 60), max_size=3)


class _NoopSampler:
    """A boundary sampler that records nothing: it only moves its due
    time on, so a sampled run must fire the unsampled sequence."""

    next_due = 0.0

    def on_boundary(self, t):
        return t + 1000.0


def _run_script(script, horizons, use_wheel: bool, final: str = "run"):
    """Interpret the script on one engine; return the fired sequence.

    ``final`` picks how the last, unbounded run is driven: ``"run"``
    (the fast loop), ``"max_events"`` or ``"sampler"`` (both take the
    general loop).
    """
    eng = Engine()
    fired = []
    handles = []

    def payload(tag):
        fired.append((eng.now, tag))

    def step(i):
        advance, arms, cancels = script[i]
        for delay, is_timer in arms:
            tag = len(handles)
            if is_timer and use_wheel:
                handles.append(eng.timer_after(delay * 250.0, payload, tag))
            else:
                handles.append(eng.after(delay * 250.0, payload, tag))
        for target in cancels:
            if target < len(handles):
                eng.cancel(handles[target])  # may already have fired: noop
        if i + 1 < len(script):
            next_adv = script[i + 1][0]
            eng.after(next_adv * 250.0, step, i + 1)

    eng.after(script[0][0] * 250.0, step, 0)
    for h in sorted(horizons):
        eng.run(until=h * 250.0)  # deferred events keep their handles
    if final == "max_events":
        eng.run(max_events=10**6)
    else:
        if final == "sampler":
            eng.sampler = _NoopSampler()
        eng.run()
    assert eng.pending == 0
    return fired


class TestWheelHeapEquivalence:
    @pytest.mark.parametrize("final", ["run", "max_events", "sampler"])
    @given(script_st, horizons_st)
    @settings(max_examples=80, deadline=None)
    def test_identical_fire_sequence(self, final, script, horizons):
        """A wheel+heap engine fires the exact (time, seq, fn) sequence
        of a heap-only engine under randomized arm/cancel/requeue: the
        fired (now, tag) streams — tags encode arm order, i.e. seq —
        must match element for element, whichever run loop drives the
        final run."""
        heap_only = _run_script(script, horizons, use_wheel=False)
        wheel = _run_script(script, horizons, use_wheel=True, final=final)
        assert wheel == heap_only
