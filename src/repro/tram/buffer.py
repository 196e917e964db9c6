"""Aggregation buffers.

Two implementations back the two fidelity levels (see
:mod:`repro.tram.item`): :class:`ItemBuffer` stores actual
:class:`~repro.tram.item.Item` objects; :class:`CountBuffer` stores only
per-slot counts plus timestamp moments, with an exact
largest-remainder proportional split when a full ``g``-item message is
carved out of an over-full buffer.
"""

from __future__ import annotations

from operator import add, sub
from typing import List, Optional, Sequence

from repro.errors import SimulationError
from repro.tram.item import BulkBatch, Item


def proportional_take(counts: Sequence[int], k: int, total: int) -> List[int]:
    """Take ``k`` of ``total`` items from slots ``counts`` proportionally.

    Uses the largest-remainder method; deterministic (ties broken by
    lowest slot index) and guaranteed to satisfy ``0 <= take <= counts``
    and ``sum(take) == k``. ``total`` must equal ``sum(counts)``.
    """
    if k > total:
        raise SimulationError(f"cannot take {k} of {total}")
    if k == total:
        return list(counts)
    if len(counts) == 1:
        return [k]
    take = []
    rem = []
    deficit = k
    for c in counts:
        q, r = divmod(c * k, total)
        take.append(q)
        rem.append(r)
        deficit -= q
    # Only slots with rem > 0 are eligible and there are always at least
    # ``deficit`` of them; ceil never exceeds counts when k < total.
    # Ties go to the lowest slot: ``index`` finds the first maximum and
    # ``sorted`` stays stable under ``reverse=True``.
    if deficit == 1:
        take[rem.index(max(rem))] += 1
    elif deficit:
        for i in sorted(range(len(rem)), key=rem.__getitem__, reverse=True)[
            :deficit
        ]:
            take[i] += 1
    return take


class ItemBuffer:
    """Fixed-capacity buffer of real :class:`Item` objects.

    Partial drains advance a head cursor instead of shifting the tail
    left (``del items[:k]`` is O(n) per call); the backing list is
    compacted only once the dead prefix reaches half its length, so a
    sequence of partial drains costs amortized O(1) per drained item.
    The minimum priority is tracked incrementally on ``add``/``drain``
    rather than rebuilt from a throwaway list per query.
    """

    __slots__ = (
        "capacity",
        "timer_event",
        "dest",
        "_items",
        "_head",
        "_min_priority",
        "_prio_count",
    )

    def __init__(self, capacity: int, dest=None) -> None:
        self.capacity = capacity
        #: Armed flush-timeout state, managed by the scheme.
        self.timer_event = None
        #: ``(dst_process, dst_worker_or_None)`` routing of this buffer.
        self.dest = dest
        self._items: List[Item] = []
        self._head = 0
        self._min_priority: Optional[float] = None
        self._prio_count = 0

    @property
    def items(self) -> List[Item]:
        """The buffered items, oldest first (the live slice)."""
        return self._items[self._head:] if self._head else self._items

    def add(self, item: Item) -> bool:
        """Append an item; return True when the buffer reached capacity."""
        self._items.append(item)
        p = item.priority
        if p is not None:
            self._prio_count += 1
            if self._min_priority is None or p < self._min_priority:
                self._min_priority = p
        return len(self._items) - self._head >= self.capacity

    def drain(self, k: Optional[int] = None) -> List[Item]:
        """Remove and return the oldest ``k`` items (all if ``None``)."""
        items = self._items
        head = self._head
        if k is None or k >= len(items) - head:
            out = items[head:] if head else items
            self._items = []
            self._head = 0
            self._min_priority = None
            self._prio_count = 0
            return out
        end = head + k
        out = items[head:end]
        self._head = end
        if end * 2 >= len(items):
            del items[:end]
            self._head = 0
        if self._prio_count:
            self._note_drained(out)
        return out

    def _note_drained(self, out: List[Item]) -> None:
        removed = 0
        min_left = False
        mn = self._min_priority
        for it in out:
            p = it.priority
            if p is not None:
                removed += 1
                if p == mn:
                    min_left = True
        if not removed:
            return
        self._prio_count -= removed
        if self._prio_count == 0:
            self._min_priority = None
        elif min_left:
            self._min_priority = min(
                it.priority
                for it in self._items[self._head:]
                if it.priority is not None
            )

    @property
    def count(self) -> int:
        return len(self._items) - self._head

    @property
    def empty(self) -> bool:
        return len(self._items) == self._head

    def min_priority(self) -> Optional[float]:
        """Smallest item priority present (None when unprioritized). O(1)."""
        return self._min_priority


class CountBuffer:
    """Fixed-capacity buffer of item *counts* (bulk/flow mode).

    Parameters
    ----------
    capacity:
        ``g`` — items before the buffer is considered full.
    dst_ids:
        Global worker ids of the destination slots tracked (``None`` for
        a single-destination buffer, e.g. WW).
    src_ids:
        Global worker ids of the possible contributors (``None`` for a
        single-source buffer).
    """

    __slots__ = (
        "capacity",
        "count",
        "dst_ids",
        "dst_counts",
        "src_ids",
        "src_counts",
        "t_sum",
        "t_min",
        "timer_event",
        "dest",
    )

    def __init__(
        self,
        capacity: int,
        dst_ids: Optional[Sequence[int]] = None,
        src_ids: Optional[Sequence[int]] = None,
        dest=None,
    ) -> None:
        self.capacity = capacity
        self.count = 0
        self.dst_ids = dst_ids
        self.dst_counts = [0] * len(dst_ids) if dst_ids is not None else None
        self.src_ids = src_ids
        self.src_counts = [0] * len(src_ids) if src_ids is not None else None
        self.t_sum = 0.0
        self.t_min = float("inf")
        self.timer_event = None
        self.dest = dest

    @property
    def empty(self) -> bool:
        return self.count == 0

    @property
    def full(self) -> bool:
        return self.count >= self.capacity

    def add_counts(
        self,
        n: int,
        now: float,
        dst_slot_counts: Optional[Sequence[int]] = None,
        src_slot: Optional[int] = None,
    ) -> None:
        """Account ``n`` items created at ``now``.

        ``dst_slot_counts`` distributes them over destination slots (must
        sum to ``n``); ``src_slot`` attributes them to one contributor.
        """
        if n <= 0:
            raise SimulationError(f"add_counts with n={n}")
        self.count += n
        self.t_sum += n * now
        if now < self.t_min:
            self.t_min = now
        if self.dst_counts is not None:
            if dst_slot_counts is None:
                raise SimulationError("buffer tracks destinations; counts required")
            self.dst_counts = list(map(add, self.dst_counts, dst_slot_counts))
        if self.src_counts is not None:
            if src_slot is None:
                raise SimulationError("buffer tracks sources; src_slot required")
            self.src_counts[src_slot] += n

    def take(self, k: int) -> BulkBatch:
        """Carve ``k`` items out of the buffer as a :class:`BulkBatch`.

        Destination and source marginals are split proportionally
        (largest remainder); timestamp moments are split pro-rata.
        """
        if k <= 0 or k > self.count:
            raise SimulationError(f"take({k}) from buffer of {self.count}")
        frac = k / self.count
        t_sum_part = self.t_sum * frac
        dst_part = None
        if self.dst_counts is not None:
            dst_part = proportional_take(self.dst_counts, k, self.count)
            self.dst_counts = list(map(sub, self.dst_counts, dst_part))
        src_part = None
        if self.src_counts is not None:
            src_part = proportional_take(self.src_counts, k, self.count)
            self.src_counts = list(map(sub, self.src_counts, src_part))
        batch = BulkBatch(
            count=k,
            dst_ids=self.dst_ids,
            dst_counts=dst_part,
            src_ids=self.src_ids,
            src_counts=src_part,
            t_sum=t_sum_part,
            t_min=self.t_min,
        )
        self.count -= k
        self.t_sum -= t_sum_part
        if self.count == 0:
            self.t_sum = 0.0
            self.t_min = float("inf")
        return batch

    def take_all(self) -> BulkBatch:
        """Drain the whole buffer (flush path)."""
        return self.take(self.count)
