"""The discrete-event simulation engine.

The engine owns the simulated clock and two event sources it merges into
one deterministic stream:

* a binary heap (:class:`~repro.sim.queue.EventQueue`) for
  precise-ordering events — the default for :meth:`Engine.at` /
  :meth:`Engine.after` and the no-handle fast paths
  :meth:`Engine.call_at` / :meth:`Engine.call_after`;
* a hierarchical timer wheel (:class:`~repro.sim.wheel.TimerWheel`) for
  timeout-class events armed through :meth:`Engine.timer_at` /
  :meth:`Engine.timer_after` — flush timeouts, retransmit timers,
  credit-release timers — which are cancelled far more often than they
  fire and would otherwise bloat the heap with corpses.

Running to event-queue exhaustion is the simulator's notion of
*quiescence* — the applications in :mod:`repro.apps` are written so that
a finished run drains naturally (flush timers are one-shot and
conditional).

Determinism
-----------
Two runs with the same configuration and seeds execute the identical
event sequence: ties in firing time are broken by insertion order
(``seq``), and all randomness flows through
:class:`repro.sim.rng.RngStreams`. The wheel/heap split cannot reorder
anything: both sources surface their earliest live event and the engine
compares the two ``[time, seq, ...]`` lists directly, so the merged
stream is the exact ``(time, seq)`` total order regardless of which
structure an event waited in. ``tests/properties/test_prop_sim.py``
pins this with a randomized heap-only-vs-wheel equivalence test.

Owner-slot sequence numbers
---------------------------
By default ``seq`` is a single global counter. A multi-owner engine
(:meth:`Engine.configure_owners`, used by multi-node runtimes) instead
allocates from per-owner counters and encodes the allocating slot into
the sequence number::

    seq = per_slot_counter * n_slots + slot

with one slot per owner (simulated node) plus one slot per *directed
owner pair* for cross-node wire events. The encoding decides how
same-time events tie, so it is part of the simulated result: skipping
it changes the mean-latency bits of every multi-node reference point
(and, under faults and flow control, bytes sent, drops and parks).
``tests/sim/test_engine_owners.py`` pins both the encoding and two
reference outputs. With a single owner the encoding collapses to
``seq = counter``.

Events are plain lists (see :mod:`repro.sim.event`): slot 2 is the
state, and the list itself is the cancellation handle.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Any, Callable, Optional

from repro.errors import SchedulingError, SimulationError
from repro.sim.event import ST_CONSUMED, ST_PENDING, ST_POOLED, ST_WHEEL
from repro.sim.queue import EventQueue
from repro.sim.trace import Tracer
from repro.sim.wheel import TimerWheel

_heappush = heappush
_heappop = heappop

#: Upper bound on recycled event lists kept by the pool. Pooling only
#: pays off once the heap is deep enough to outgrow CPython's internal
#: list free-list; the cap bounds memory after a transient burst.
POOL_CAP = 4096

#: Young-generation GC threshold held while :meth:`Engine.run` executes.
#: The simulator's per-event garbage is acyclic and freed by refcount,
#: so CPython's default gen0 threshold (700) runs collections that find
#: nothing; this spaces them out. The gen1/gen2 multipliers are left
#: alone, so older generations are still collected on the same relative
#: cadence and cyclic garbage is still reclaimed during a run.
GC_GEN0_THRESHOLD = 20000


@dataclass
class RunStats:
    """Summary of one :meth:`Engine.run` call."""

    events_fired: int = 0
    end_time: float = 0.0
    stopped_early: bool = False
    horizon_reached: bool = False
    #: Time of the last event actually fired by this call (unlike
    #: ``end_time``, never advanced to an un-fired horizon).
    last_event_time: float = 0.0


class Engine:
    """Deterministic discrete-event engine.

    Parameters
    ----------
    tracer:
        Optional :class:`~repro.sim.trace.Tracer`; when provided, every
        fired event is recorded (category ``"event"``).
    """

    __slots__ = (
        "tracer",
        "now",
        "sampler",
        "current_owner",
        "_queue",
        "_wheel",
        "_heap",
        "_pool",
        "_owner_seq",
        "_n_owners",
        "_n_slots",
        "_owner_mod",
        "_running",
        "_stop_requested",
    )

    def __init__(self, tracer: Optional[Tracer] = None, now: float = 0.0) -> None:
        self.tracer = tracer
        #: Optional boundary sampler (a
        #: :class:`~repro.obs.timeline.TimelineRecorder`): before firing
        #: the first event at-or-past ``sampler.next_due``, the run loop
        #: calls ``sampler.on_boundary(t)``. Driving sampling from the
        #: event stream (rather than self-rescheduling sampler events)
        #: keeps run-to-exhaustion quiescence intact and adds only one
        #: float compare per event. A sampled run takes the general loop.
        self.sampler: Optional[Any] = None
        #: Owner slot of the event currently firing (multi-owner engines
        #: only; stays 0 otherwise). Events scheduled from inside a
        #: callback are allocated under this owner.
        self.current_owner = 0
        self.now = now
        self._queue = EventQueue()
        self._wheel = TimerWheel()
        #: Alias of the queue's heap list; EventQueue.compact() rebuilds
        #: it in place so this alias never goes stale.
        self._heap = self._queue._heap
        self._pool: list = []
        self._n_owners = 1
        self._n_slots = 1
        #: 0 disables per-event owner decoding (single-owner engines);
        #: equals ``_n_slots`` otherwise.
        self._owner_mod = 0
        self._owner_seq = [0]
        self._running = False
        self._stop_requested = False

    # ------------------------------------------------------------------
    # Owner configuration (multi-node runtimes)
    # ------------------------------------------------------------------
    def configure_owners(self, n_owners: int) -> None:
        """Switch to owner-slot seq allocation over ``n_owners``.

        Must be called before anything is scheduled. Slots ``0..n-1``
        are per-owner counters; slot ``n + src*n + dst`` orders the
        directed cross-owner wire channel ``src -> dst``. With
        ``n_owners == 1`` the engine stays on the plain global counter.
        """
        if n_owners < 1:
            raise SimulationError(f"n_owners must be >= 1, got {n_owners}")
        if self.pending or any(self._owner_seq):
            raise SimulationError(
                "configure_owners() must run before any event is scheduled"
            )
        self._n_owners = n_owners
        self._n_slots = 1 if n_owners == 1 else n_owners + n_owners * n_owners
        self._owner_mod = 0 if n_owners == 1 else self._n_slots
        self._owner_seq = [0] * self._n_slots
        self.current_owner = 0

    # ------------------------------------------------------------------
    # Scheduling — precise-ordering heap
    # ------------------------------------------------------------------
    def _alloc_seq(self) -> int:
        cur = self.current_owner
        seqs = self._owner_seq
        oseq = seqs[cur]
        seqs[cur] = oseq + 1
        return oseq * self._n_slots + cur

    def at(self, time: float, fn: Callable[..., Any], *args: Any) -> list:
        """Schedule ``fn(*args)`` at absolute simulated time ``time``.

        Returns the event list, usable as a :meth:`cancel` handle.

        Raises
        ------
        SchedulingError
            If ``time`` is in the past (strictly before ``now``).
        """
        if time < self.now:
            raise SchedulingError(
                f"cannot schedule at t={time} (now={self.now}): time is in the past"
            )
        cur = self.current_owner
        seqs = self._owner_seq
        oseq = seqs[cur]
        seqs[cur] = oseq + 1
        ev = [time, oseq * self._n_slots + cur, ST_PENDING, fn, args]
        _heappush(self._heap, ev)
        return ev

    def after(self, delay: float, fn: Callable[..., Any], *args: Any) -> list:
        """Schedule ``fn(*args)`` ``delay`` ns from the current time."""
        if delay < 0:
            raise SchedulingError(f"negative delay {delay}")
        cur = self.current_owner
        seqs = self._owner_seq
        oseq = seqs[cur]
        seqs[cur] = oseq + 1
        ev = [self.now + delay, oseq * self._n_slots + cur, ST_PENDING, fn, args]
        _heappush(self._heap, ev)
        return ev

    def call_at(self, time: float, fn: Callable[..., Any], args: tuple = ()) -> None:
        """No-handle fast path: like :meth:`at` but skips the past-time
        check (callers pass times derived from ``now`` plus non-negative
        costs) and returns nothing, so the event list can be recycled
        through the pool after it fires. Use for internal fire-and-forget
        scheduling on hot paths; anything that might be cancelled needs
        :meth:`at` or :meth:`timer_at`."""
        cur = self.current_owner
        seqs = self._owner_seq
        oseq = seqs[cur]
        seqs[cur] = oseq + 1
        seq = oseq * self._n_slots + cur
        pool = self._pool
        if pool:
            ev = pool.pop()
            ev[0] = time
            ev[1] = seq
            ev[2] = ST_POOLED
            ev[3] = fn
            ev[4] = args
        else:
            ev = [time, seq, ST_POOLED, fn, args]
        _heappush(self._heap, ev)

    def call_after(self, delay: float, fn: Callable[..., Any], args: tuple = ()) -> None:
        """No-handle fast path twin of :meth:`after` (delay must be >= 0,
        unchecked)."""
        cur = self.current_owner
        seqs = self._owner_seq
        oseq = seqs[cur]
        seqs[cur] = oseq + 1
        seq = oseq * self._n_slots + cur
        pool = self._pool
        if pool:
            ev = pool.pop()
            ev[0] = self.now + delay
            ev[1] = seq
            ev[2] = ST_POOLED
            ev[3] = fn
            ev[4] = args
        else:
            ev = [self.now + delay, seq, ST_POOLED, fn, args]
        _heappush(self._heap, ev)

    # ------------------------------------------------------------------
    # Scheduling — cross-owner wire channels
    # ------------------------------------------------------------------
    def wire_seq(self, src_owner: int, dst_owner: int) -> int:
        """Allocate a seq on the ordered ``src -> dst`` wire channel.

        Wire events are *executed* by their destination owner but their
        allocation order depends only on the sender, so the counter
        lives in a dedicated per-pair slot advanced only by sends on
        that channel.
        """
        n = self._n_owners
        slot = n + src_owner * n + dst_owner
        seqs = self._owner_seq
        oseq = seqs[slot]
        seqs[slot] = oseq + 1
        return oseq * self._n_slots + slot

    def wire_call_at(
        self,
        time: float,
        fn: Callable[..., Any],
        args: tuple,
        src_owner: int,
        dst_owner: int,
    ) -> None:
        """:meth:`call_at` on the ``src -> dst`` wire channel.

        Falls back to :meth:`call_at` on single-owner engines (no pair
        slots exist, and none are needed).
        """
        if not self._owner_mod:
            self.call_at(time, fn, args)
            return
        seq = self.wire_seq(src_owner, dst_owner)
        pool = self._pool
        if pool:
            ev = pool.pop()
            ev[0] = time
            ev[1] = seq
            ev[2] = ST_POOLED
            ev[3] = fn
            ev[4] = args
        else:
            ev = [time, seq, ST_POOLED, fn, args]
        _heappush(self._heap, ev)

    # ------------------------------------------------------------------
    # Scheduling — timer wheel (timeout-class events)
    # ------------------------------------------------------------------
    def timer_at(self, time: float, fn: Callable[..., Any], *args: Any) -> list:
        """Arm a timeout at absolute time ``time``; O(1) arm and cancel.

        Identical observable semantics to :meth:`at` — the wheel and the
        heap are merged in exact ``(time, seq)`` order — but backed by
        the timer wheel, which is the right home for events that are
        usually cancelled before they fire."""
        if time < self.now:
            raise SchedulingError(
                f"cannot schedule at t={time} (now={self.now}): time is in the past"
            )
        cur = self.current_owner
        seqs = self._owner_seq
        oseq = seqs[cur]
        seqs[cur] = oseq + 1
        ev = [time, oseq * self._n_slots + cur, ST_WHEEL, fn, args]
        self._wheel.push(ev)
        return ev

    def timer_after(self, delay: float, fn: Callable[..., Any], *args: Any) -> list:
        """Arm a timeout ``delay`` ns from now (see :meth:`timer_at`)."""
        if delay < 0:
            raise SchedulingError(f"negative delay {delay}")
        cur = self.current_owner
        seqs = self._owner_seq
        oseq = seqs[cur]
        seqs[cur] = oseq + 1
        ev = [self.now + delay, oseq * self._n_slots + cur, ST_WHEEL, fn, args]
        self._wheel.push(ev)
        return ev

    # ------------------------------------------------------------------
    # Cancellation
    # ------------------------------------------------------------------
    def cancel(self, event: list) -> None:
        """Cancel a scheduled event. O(1) amortized.

        Safe no-op if the event already fired or was cancelled. Handles
        stay valid across run horizons: :meth:`run` never removes an
        event it does not fire, so a handle scheduled beyond ``until``
        still cancels the real queued event."""
        state = event[2]
        if state == ST_PENDING or state == ST_POOLED:
            self._queue.cancel(event)
        elif state == ST_WHEEL:
            self._wheel.cancel(event)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Number of live events waiting to fire (heap + wheel)."""
        return self._queue.live_count + self._wheel.live_count

    def peek_time(self) -> Optional[float]:
        """Firing time of the next live event, or ``None``."""
        qt = self._queue.peek_time()
        wt = self._wheel.peek_time()
        if qt is None:
            return wt
        if wt is None:
            return qt
        return qt if qt <= wt else wt

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run(
        self,
        *,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> RunStats:
        """Process events until exhaustion, a horizon, or :meth:`stop`.

        Parameters
        ----------
        until:
            If given, fire events *strictly before* this time and stop.
            When a live event at or past ``until`` is left queued, the
            clock is parked at ``until``; when the queue drains first,
            the clock stays at the last fired event's time (an empty
            engine does not move at all). An event scheduled exactly at
            the horizon is deferred — it belongs to the next ``run()``
            call, so successive calls with ``until=h1, h2, ...`` fire
            each event exactly once, in the window ``[h_{k-1}, h_k)``
            that contains it. Deferred events are *not* popped — they
            stay queued, so their handles remain valid and a later
            :meth:`run` call fires them. A horizon routes the run
            through the general loop.
        max_events:
            Safety valve for tests: abort with :class:`SimulationError`
            after this many events (catches accidental infinite loops).

        Returns
        -------
        RunStats
            Count of fired events and the final clock value.

        Notes
        -----
        Without a horizon, an event cap, a tracer or a sampler the run
        takes the unobserved fast loop; otherwise the general one.
        While the loop runs, the young-generation GC threshold is raised
        to :data:`GC_GEN0_THRESHOLD`. A caller's higher threshold is
        kept, a zero threshold (automatic collection off) is left alone,
        and ``gc.isenabled()`` is never touched. The caller's thresholds
        are restored on every exit, including :meth:`stop` and errors.
        """
        if self._running:
            raise SimulationError("Engine.run() is not reentrant")
        self._running = True
        self._stop_requested = False
        stats = RunStats()
        stats.last_event_time = self.now
        thresholds = gc.get_threshold()
        # A zero gen0 threshold means automatic collection is off;
        # raising it would turn collection back on.
        if 0 < thresholds[0] < GC_GEN0_THRESHOLD:
            gc.set_threshold(GC_GEN0_THRESHOLD, *thresholds[1:])
        try:
            if (
                until is None
                and max_events is None
                and self.tracer is None
                and self.sampler is None
            ):
                self._run_fast(stats)
            else:
                self._run_general(stats, until, max_events)
        finally:
            self._running = False
            gc.set_threshold(*thresholds)
        stats.end_time = self.now
        return stats

    def _run_fast(self, stats: RunStats) -> None:
        """Unobserved full run: the simulator's hot loop.

        When the head event comes from the wheel, any further wheel
        events at the *same timestamp* that still precede the heap head
        are applied as a batched cohort without re-entering the merge
        loop — flush-timer coalescing produces exactly these dense
        same-deadline bursts. The cohort fires the identical events in
        the identical ``(time, seq)`` order the plain loop would:
        cohort members were armed before anything a fired callback can
        schedule now (so their seqs are smaller), and the cached heap
        head bounds everything that was already queued.
        """
        queue = self._queue
        heap = self._heap
        wheel = self._wheel
        pool = self._pool
        mod = self._owner_mod
        nown = self._n_owners
        fired = 0
        while not self._stop_requested:
            hev = None
            from_wheel = False
            if wheel._live:
                wev = wheel.peek()
                hev = queue.peek()
                if hev is None or wev < hev:
                    ev = wheel.pop()
                    from_wheel = True
                else:
                    ev = _heappop(heap)
            else:
                # Heap-only fast path: skim corpses inline.
                while heap:
                    ev = _heappop(heap)
                    if ev[2]:
                        break
                    queue._corpses -= 1
                else:
                    break
            state = ev[2]
            t = ev[0]
            self.now = t
            if mod:
                slot = ev[1] % mod
                self.current_owner = slot if slot < nown else (slot - nown) % nown
            fired += 1
            ev[2] = ST_CONSUMED
            ev[3](*ev[4])
            if state == ST_POOLED and len(pool) < POOL_CAP:
                pool.append(ev)
            if from_wheel:
                # Same-timestamp wheel cohort (see docstring).
                cur = wheel._current
                while cur and not self._stop_requested:
                    head = cur[0]
                    if head[2] != ST_WHEEL:
                        _heappop(cur)
                        wheel._dead -= 1
                        continue
                    if head[0] != t or (hev is not None and hev < head):
                        break
                    wheel._live -= 1
                    ev = _heappop(cur)
                    if mod:
                        slot = ev[1] % mod
                        self.current_owner = (
                            slot if slot < nown else (slot - nown) % nown
                        )
                    fired += 1
                    ev[2] = ST_CONSUMED
                    ev[3](*ev[4])
        else:
            stats.stopped_early = True
        stats.events_fired = fired
        stats.last_event_time = self.now

    def _run_general(
        self, stats: RunStats, until: Optional[float], max_events: Optional[int]
    ) -> None:
        """Run with a horizon, an event cap, a tracer or a sampler.

        Peeks before popping, so an event beyond the horizon is never
        removed — that is what keeps cancel handles valid across
        successive horizons. A boundary sampler costs one float compare
        per event here; :meth:`_run_fast` carries none."""
        queue = self._queue
        heap = self._heap
        wheel = self._wheel
        pool = self._pool
        tracer = self.tracer
        sampler = self.sampler
        mod = self._owner_mod
        nown = self._n_owners
        next_due = sampler.next_due if sampler is not None else None
        fired = 0
        while True:
            if self._stop_requested:
                stats.stopped_early = True
                break
            from_wheel = False
            if wheel._live:
                wev = wheel.peek()
                hev = queue.peek()
                if hev is None or wev < hev:
                    ev = wev
                    from_wheel = True
                else:
                    ev = hev
            else:
                ev = queue.peek()
                if ev is None:
                    break
            t = ev[0]
            if until is not None and t >= until:
                # It belongs to a later run() call; leave it in place.
                stats.horizon_reached = True
                break
            if from_wheel:
                wheel.pop()
            else:
                _heappop(heap)
            if next_due is not None and t >= next_due:
                # Sample state-at-boundary before the crossing event
                # fires; all applied events are strictly earlier.
                next_due = sampler.on_boundary(t)
            if t < self.now:  # pragma: no cover - invariant guard
                raise SimulationError(
                    f"time went backwards: event at {t}, now {self.now}"
                )
            self.now = t
            if mod:
                slot = ev[1] % mod
                self.current_owner = slot if slot < nown else (slot - nown) % nown
            fired += 1
            if max_events is not None and fired > max_events:
                raise SimulationError(
                    f"exceeded max_events={max_events}; probable runaway loop"
                )
            if tracer is not None and tracer.wants("event"):
                tracer.record(
                    "event", t=t, fn=getattr(ev[3], "__qualname__", "?")
                )
            state = ev[2]
            ev[2] = ST_CONSUMED
            ev[3](*ev[4])
            if state == ST_POOLED and len(pool) < POOL_CAP:
                pool.append(ev)
        stats.events_fired = fired
        stats.last_event_time = self.now
        if stats.horizon_reached and until is not None and self.now < until:
            self.now = until

    def stop(self) -> None:
        """Request the current :meth:`run` loop to stop after this event."""
        self._stop_requested = True

    def reset(self) -> None:
        """Clear the queue and rewind the clock (for test reuse)."""
        if self._running:
            raise SimulationError("cannot reset a running engine")
        self._queue = EventQueue()
        self._heap = self._queue._heap
        self._wheel = TimerWheel()
        self._pool = []
        self.now = 0.0
        self._owner_seq = [0] * self._n_slots
        self.current_owner = 0
        self._stop_requested = False
