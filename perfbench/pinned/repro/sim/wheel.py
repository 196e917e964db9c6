"""Hierarchical timer wheel for timeout-class events.

Flush timeouts, retransmit timers, and credit-release timers share a
pattern the binary heap handles worst: armed far in the future, cancelled
(or rearmed) long before they fire, at high rates. A heap pays O(log n)
per arm on a structure inflated by corpses; a timer wheel pays O(1) per
arm and per cancel, deferring all ordering work until a slot actually
comes due — and most timeout events never do.

Layout
------
``levels`` rings of ``slots`` buckets each. Level ``k`` buckets span
``granularity * slots**k`` nanoseconds, so with the defaults
(g=1024 ns, 256 slots, 3 levels) the wheel covers ~17 s of simulated
time; anything beyond that sits in an overflow list until the cursor
gets close. ``granularity`` is rounded up to a power of two so that all
slot arithmetic on (power-of-two-scaled) float timestamps is exact —
bucket boundaries must never disagree with the heap comparison the
engine uses to merge wheel and heap events.

The wheel *materializes* one level-0 slot at a time: ``_current`` is a
small heap holding every pending event with ``time < _cur_end``. Arms
that land inside the materialized window go straight into that heap, so
the wheel is correct even when a timer is armed for (almost) *now*.
When the window drains, the cursor advances to the next non-empty
level-0 bucket, cascading higher-level buckets down as they come due.

Determinism: events are the ``(time, seq)``-leading lists of
:mod:`repro.sim.event`, ``_current`` is a real heap over them, and the
cursor only ever advances to the earliest non-empty bucket — so
:meth:`peek` always returns the globally earliest live wheel event, and
the engine's merge with the precise-ordering heap preserves the exact
``(time, seq)`` total order.

Cancellation is lazy (state flip + counters); corpses are dropped when
their bucket materializes, and any debris left when the wheel goes
fully idle is swept on the next arm.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Optional

from repro.sim.event import EV_STATE, EV_TIME, ST_CANCELLED, ST_WHEEL

_heappush = heappush
_heappop = heappop


class TimerWheel:
    """Hierarchical timer wheel over event lists.

    Parameters
    ----------
    granularity:
        Level-0 slot width in simulated ns (rounded up to a power of
        two). Timers closer together than this still fire in exact
        ``(time, seq)`` order — granularity only affects bucketing cost,
        never ordering.
    slots:
        Buckets per level.
    levels:
        Number of rings.
    """

    __slots__ = (
        "granularity",
        "slots",
        "levels",
        "_rings",
        "_overflow",
        "_current",
        "_pos",
        "_cur_end",
        "_live",
        "_dead",
        "_high",
    )

    def __init__(
        self, granularity: float = 1024.0, slots: int = 256, levels: int = 3
    ) -> None:
        if granularity <= 0.0:
            raise ValueError(f"granularity must be positive, got {granularity}")
        if slots < 2 or levels < 1:
            raise ValueError(f"need slots >= 2 and levels >= 1")
        g = 1.0
        while g < granularity:
            g *= 2.0
        self.granularity = g
        self.slots = slots
        self.levels = levels
        self._rings = [[[] for _ in range(slots)] for _ in range(levels)]
        #: Events beyond the last ring's horizon.
        self._overflow: list = []
        #: Materialized window: heap of events with time < _cur_end.
        self._current: list = []
        #: Slot-aligned start of the materialized window.
        self._pos = 0.0
        self._cur_end = g
        self._live = 0
        #: Cancelled corpses still physically inside the structure.
        self._dead = 0
        #: Physical entries (live or dead) sitting in rings >= 1 or in
        #: the overflow list. While zero — the common case — cursor
        #: advances never need to consider cascade ordering.
        self._high = 0

    # ------------------------------------------------------------------
    # Arm / cancel
    # ------------------------------------------------------------------
    def push(self, ev: list) -> None:
        """Arm an event. O(1).

        Marks the event ``ST_WHEEL``; the caller keeps the list as its
        cancellation handle.
        """
        ev[EV_STATE] = ST_WHEEL
        if not self._live:
            # Idle wheel: snap the cursor to the event so arbitrary gaps
            # (or an earlier-than-cursor arm) cost nothing to reach.
            if self._dead:
                self._sweep()
            g = self.granularity
            start = float(int(ev[EV_TIME] / g)) * g
            self._pos = start
            self._cur_end = start + g
        self._live += 1
        self._place(ev)

    def cancel(self, ev: list) -> bool:
        """Cancel an armed event. O(1); the corpse is dropped lazily."""
        if ev[EV_STATE] != ST_WHEEL:
            return False
        ev[EV_STATE] = ST_CANCELLED
        self._live -= 1
        self._dead += 1
        return True

    # ------------------------------------------------------------------
    # Consumption (engine side)
    # ------------------------------------------------------------------
    def peek(self) -> Optional[list]:
        """The earliest live event, or ``None``. Advances the cursor as
        far as needed; amortized O(1) per consumed event."""
        while True:
            cur = self._current
            while cur:
                head = cur[0]
                if head[EV_STATE] == ST_WHEEL:
                    return head
                _heappop(cur)
                self._dead -= 1
            if not self._live:
                return None
            self._advance()

    def pop(self) -> list:
        """Remove and return the head (must follow a successful peek)."""
        self._live -= 1
        return _heappop(self._current)

    def peek_time(self) -> Optional[float]:
        """Time of the earliest live event, or ``None`` if empty."""
        ev = self.peek()
        return None if ev is None else ev[EV_TIME]

    @property
    def live_count(self) -> int:
        """Number of live (non-cancelled) events currently armed."""
        return self._live

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    @property
    def raw_size(self) -> int:
        """Physical entries including corpses (for tests)."""
        return self._live + self._dead

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _place(self, ev: list) -> None:
        """Route one live event to the window, a ring bucket, or overflow."""
        t = ev[EV_TIME]
        if t < self._cur_end:
            _heappush(self._current, ev)
            return
        pos = self._pos
        width = self.granularity
        slots = self.slots
        level = 0
        for ring in self._rings:
            ai = int(t / width)
            if ai - int(pos / width) < slots:
                ring[ai % slots].append(ev)
                if level:
                    self._high += 1
                return
            width *= slots
            level += 1
        self._overflow.append(ev)
        self._high += 1

    def _advance(self) -> None:
        """Move the cursor one step: materialize the earliest due level-0
        bucket, or — when a higher-level bucket comes due at or before it
        — cascade that bucket down first. Only called while live events
        remain.

        The cascade-before-materialize rule is what keeps the merge
        order exact: a level-k bucket spans ``slots**k`` level-0 widths,
        so once the cursor would move past its start, events anywhere in
        its span could be earlier than anything the level-0 scan sees.
        Materializing ring-0 buckets while skipping such a pending
        bucket would fire events out of order (time running backwards
        once the bucket finally cascades)."""
        g = self.granularity
        slots = self.slots
        rings = self._rings
        ring0 = rings[0]
        base0 = int(self._pos / g)
        best0_start = None
        best0_idx = -1
        for step in range(1, slots):
            idx = (base0 + step) % slots
            if ring0[idx]:
                best0_start = float(base0 + step) * g
                best0_idx = idx
                break
        if self._high:
            # Earliest pending bucket in rings >= 1; on equal starts the
            # higher level cascades first (its span encloses the lower).
            high_start = None
            high_level = -1
            high_idx = -1
            width = g * slots
            for level in range(1, self.levels):
                ringk = rings[level]
                basek = int(self._pos / width)
                for step in range(slots):
                    idx = (basek + step) % slots
                    if ringk[idx]:
                        start = float(basek + step) * width
                        if high_start is None or start <= high_start:
                            high_start = start
                            high_level = level
                            high_idx = idx
                        break
                width *= slots
            if high_start is not None and (
                best0_start is None or high_start <= best0_start
            ):
                if high_start > self._pos:
                    # Aligned to this level's width, hence to g too.
                    self._pos = high_start
                    self._cur_end = high_start + g
                ringk = rings[high_level]
                bucket = ringk[high_idx]
                ringk[high_idx] = []
                self._high -= len(bucket)
                if best0_start == high_start:
                    # The ring-0 bucket starting at the same instant is
                    # now the current window; fold it in so it is not
                    # stranded behind the advanced cursor (the scan
                    # above never revisits the cursor's own slot).
                    bucket = bucket + ring0[best0_idx]
                    ring0[best0_idx] = []
                self._redistribute(bucket)
                return
        if best0_start is not None:
            self._pos = best0_start
            self._cur_end = best0_start + g
            bucket = ring0[best0_idx]
            ring0[best0_idx] = []
            heapify(bucket)
            self._current = bucket
            return
        self._drain_overflow()

    def _redistribute(self, bucket: list) -> None:
        for ev in bucket:
            if ev[EV_STATE]:
                self._place(ev)
            else:
                self._dead -= 1

    def _drain_overflow(self) -> None:
        # All rings are empty (the scans above cover every entry they
        # can hold), so every live event sits in the overflow list.
        overflow = self._overflow
        self._overflow = []
        self._high -= len(overflow)
        live = [ev for ev in overflow if ev[EV_STATE]]
        self._dead -= len(overflow) - len(live)
        g = self.granularity
        start = float(int(min(ev[EV_TIME] for ev in live) / g)) * g
        self._pos = start
        self._cur_end = start + g
        for ev in live:
            self._place(ev)

    def _sweep(self) -> None:
        """Drop all corpses; only called when no live events remain."""
        for ring in self._rings:
            for i, bucket in enumerate(ring):
                if bucket:
                    ring[i] = []
        self._current = []
        self._overflow = []
        self._dead = 0
        self._high = 0
