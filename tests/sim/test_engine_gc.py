"""The engine's garbage-collector contract during :meth:`Engine.run`.

While a run executes, the young-generation threshold is raised to
``GC_GEN0_THRESHOLD``; the caller's thresholds come back on every exit,
a higher caller threshold is never lowered, a disabled collector stays
disabled, and cyclic garbage is still reclaimed during long runs.
"""

import gc
import weakref

import pytest

from repro.sim.engine import GC_GEN0_THRESHOLD, Engine


@pytest.fixture
def thresholds():
    """Run each test from CPython's default thresholds, then restore."""
    saved = gc.get_threshold()
    gc.set_threshold(700, 10, 10)
    try:
        yield (700, 10, 10)
    finally:
        gc.set_threshold(*saved)


def _observe(seen):
    seen.append(gc.get_threshold())


class _NoopSampler:
    """A boundary sampler that records nothing (routes a run through
    the general loop)."""

    next_due = 0.0

    def on_boundary(self, t):
        return t + 1.0


class TestThresholds:
    def test_raised_during_run_restored_after(self, thresholds):
        eng = Engine()
        seen = []
        eng.after(1.0, _observe, seen)
        eng.run()
        assert seen == [(GC_GEN0_THRESHOLD, 10, 10)]
        assert gc.get_threshold() == thresholds

    @pytest.mark.parametrize(
        "kwargs",
        [
            {},
            {"until": 50.0},
            {"max_events": 10},
            pytest.param({"sampler": _NoopSampler()}, id="sampler"),
        ],
    )
    def test_every_run_loop(self, thresholds, kwargs):
        kwargs = dict(kwargs)
        eng = Engine()
        eng.sampler = kwargs.pop("sampler", None)
        seen = []
        eng.after(1.0, _observe, seen)
        eng.run(**kwargs)
        assert seen == [(GC_GEN0_THRESHOLD, 10, 10)]
        assert gc.get_threshold() == thresholds

    def test_restored_after_callback_raises(self, thresholds):
        eng = Engine()

        def boom():
            raise RuntimeError("boom")

        eng.after(1.0, boom)
        with pytest.raises(RuntimeError, match="boom"):
            eng.run()
        assert gc.get_threshold() == thresholds

    def test_restored_after_stop(self, thresholds):
        eng = Engine()
        fired = []
        eng.after(1.0, eng.stop)
        eng.after(2.0, fired.append, "late")
        stats = eng.run()
        assert stats.stopped_early
        assert fired == []
        assert gc.get_threshold() == thresholds

    def test_higher_caller_threshold_kept(self, thresholds):
        high = (GC_GEN0_THRESHOLD * 5, 7, 3)
        gc.set_threshold(*high)
        eng = Engine()
        seen = []
        eng.after(1.0, _observe, seen)
        eng.run()
        assert seen == [high]
        assert gc.get_threshold() == high

    def test_zero_threshold_left_off(self, thresholds):
        """gen0 == 0 disables automatic collection; the run must not
        switch it back on."""
        gc.set_threshold(0, 10, 10)
        eng = Engine()
        seen = []
        eng.after(1.0, _observe, seen)
        eng.run()
        assert seen == [(0, 10, 10)]
        assert gc.get_threshold() == (0, 10, 10)

    def test_disabled_gc_stays_disabled(self, thresholds):
        gc.disable()
        try:
            eng = Engine()
            enabled = []
            eng.after(1.0, lambda: enabled.append(gc.isenabled()))
            eng.run()
            assert enabled == [False]
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_enabled_gc_stays_enabled(self, thresholds):
        assert gc.isenabled()
        eng = Engine()
        enabled = []
        eng.after(1.0, lambda: enabled.append(gc.isenabled()))
        eng.run()
        assert enabled == [True]
        assert gc.isenabled()


class _Cycle:
    """A self-referencing node: only the cyclic collector can free it."""

    def __init__(self):
        self.me = self


class TestCyclicGarbageReclaimed:
    def test_cycles_freed_before_run_returns(self, thresholds):
        """Cyclic garbage made on every event of a long run is still
        collected while the run executes."""
        eng = Engine()
        n_events = 5 * GC_GEN0_THRESHOLD
        finalized = []
        mid_run = []

        def step(i):
            obj = _Cycle()
            weakref.finalize(obj, finalized.append, i)
            if i == n_events - 1:
                mid_run.append(len(finalized))
            else:
                eng.call_after(1.0, step, (i + 1,))

        eng.call_after(1.0, step, (0,))
        gc.collect()
        eng.run()
        # Most cycles were collected inside the run, not afterwards.
        assert mid_run[0] >= n_events // 2
        gc.collect()
        assert len(finalized) == n_events
