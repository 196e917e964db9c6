"""Unit tests for aggregation buffers and the proportional split."""

import pytest

from repro.errors import SimulationError
from repro.tram.buffer import CountBuffer, ItemBuffer, proportional_take
from repro.tram.item import Item


def item(dst=0, src=1, t=0.0, priority=None):
    return Item(dst, src, t, None, priority)


class TestProportionalTake:
    def test_exact_fractions(self):
        take = proportional_take([10, 20, 30], 30, 60)
        assert take == [5, 10, 15]

    def test_sum_invariant_with_remainders(self):
        arr = [7, 11, 3, 19]
        take = proportional_take(arr, 13, sum(arr))
        assert sum(take) == 13
        assert all(t >= 0 for t in take)
        assert all(t <= a for t, a in zip(take, arr))
        assert all(type(t) is int for t in take)

    def test_take_all(self):
        arr = [4, 0, 6]
        take = proportional_take(arr, 10, 10)
        assert take == [4, 0, 6]
        assert take is not arr  # a copy: callers may mutate either side

    def test_single_slot(self):
        assert proportional_take([9], 4, 9) == [4]
        assert proportional_take((9,), 0, 9) == [0]

    def test_take_more_than_total_rejected(self):
        with pytest.raises(SimulationError):
            proportional_take([1, 2], 5, 3)

    def test_deterministic(self):
        arr = [5, 5, 5]
        a = proportional_take(list(arr), 7, 15)
        b = proportional_take(list(arr), 7, 15)
        assert a == b

    def test_ties_go_to_lowest_slot(self):
        # rem = [5, 5, 5] for every slot: the one leftover item goes to
        # slot 0, then slot 1 (stable, lowest index first).
        assert proportional_take([5, 5, 5], 7, 15) == [3, 2, 2]
        assert proportional_take([5, 5, 5], 8, 15) == [3, 3, 2]

    def test_input_not_modified(self):
        arr = [3, 1, 4, 1, 5]
        proportional_take(arr, 7, 14)
        assert arr == [3, 1, 4, 1, 5]

    def test_zero_slots_untouched(self):
        take = proportional_take([0, 10, 0, 10], 11, 20)
        assert take[0] == 0 and take[2] == 0
        assert sum(take) == 11


class TestItemBuffer:
    def test_add_reports_full(self):
        buf = ItemBuffer(3)
        assert not buf.add(item())
        assert not buf.add(item())
        assert buf.add(item())
        assert buf.count == 3

    def test_drain_all(self):
        buf = ItemBuffer(4)
        items = [item(dst=i) for i in range(3)]
        for it in items:
            buf.add(it)
        out = buf.drain()
        assert out == items
        assert buf.empty

    def test_drain_partial_keeps_order(self):
        buf = ItemBuffer(10)
        for i in range(5):
            buf.add(item(dst=i))
        out = buf.drain(2)
        assert [it.dst for it in out] == [0, 1]
        assert [it.dst for it in buf.items] == [2, 3, 4]

    def test_min_priority(self):
        buf = ItemBuffer(10)
        buf.add(item(priority=5.0))
        buf.add(item(priority=2.0))
        buf.add(item())  # unprioritized
        assert buf.min_priority() == 2.0

    def test_min_priority_none_when_unprioritized(self):
        buf = ItemBuffer(10)
        buf.add(item())
        assert buf.min_priority() is None


class TestCountBuffer:
    def test_plain_counting(self):
        buf = CountBuffer(8)
        buf.add_counts(3, now=10.0)
        buf.add_counts(5, now=20.0)
        assert buf.full
        assert buf.count == 8
        assert buf.t_sum == pytest.approx(3 * 10.0 + 5 * 20.0)
        assert buf.t_min == 10.0

    def test_take_splits_moments(self):
        buf = CountBuffer(100)
        buf.add_counts(10, now=10.0)
        batch = buf.take(4)
        assert batch.count == 4
        assert batch.t_sum == pytest.approx(40.0)
        assert buf.count == 6
        assert buf.t_sum == pytest.approx(60.0)

    def test_take_all_resets(self):
        buf = CountBuffer(10)
        buf.add_counts(7, now=1.0)
        batch = buf.take_all()
        assert batch.count == 7
        assert buf.empty
        assert buf.t_sum == 0.0
        assert buf.t_min == float("inf")

    def test_destination_slots(self):
        buf = CountBuffer(100, dst_ids=range(4, 8))
        buf.add_counts(6, now=0.0, dst_slot_counts=[1, 2, 3, 0])
        buf.add_counts(4, now=0.0, dst_slot_counts=(0, 0, 0, 4))
        assert buf.dst_counts == [1, 2, 3, 4]
        batch = buf.take(5)
        assert sum(batch.dst_counts) == 5
        assert all(t <= a for t, a in zip(batch.dst_counts, [1, 2, 3, 4]))
        assert list(batch.dst_ids) == [4, 5, 6, 7]
        assert sum(buf.dst_counts) == 5
        assert [a + b for a, b in zip(batch.dst_counts, buf.dst_counts)] == [
            1, 2, 3, 4,
        ]

    def test_source_slots(self):
        buf = CountBuffer(100, src_ids=[0, 1])
        buf.add_counts(4, now=0.0, src_slot=0)
        buf.add_counts(6, now=0.0, src_slot=1)
        batch = buf.take(5)
        assert sum(batch.src_counts) == 5
        assert batch.src_counts == [2, 3]
        assert buf.src_counts == [2, 3]

    def test_missing_slot_info_rejected(self):
        buf = CountBuffer(10, dst_ids=[0, 1])
        with pytest.raises(SimulationError):
            buf.add_counts(1, now=0.0)
        buf2 = CountBuffer(10, src_ids=[0, 1])
        with pytest.raises(SimulationError):
            buf2.add_counts(1, now=0.0)

    def test_invalid_amounts_rejected(self):
        buf = CountBuffer(10)
        with pytest.raises(SimulationError):
            buf.add_counts(0, now=0.0)
        buf.add_counts(2, now=0.0)
        with pytest.raises(SimulationError):
            buf.take(3)
        with pytest.raises(SimulationError):
            buf.take(0)
