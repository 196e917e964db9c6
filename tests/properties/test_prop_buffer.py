"""Property-based tests for buffers and the proportional split."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tram.buffer import CountBuffer, ItemBuffer, proportional_take
from repro.tram.item import Item

count_lists = st.lists(st.integers(0, 1000), min_size=1, max_size=32).filter(
    lambda a: sum(a) > 0
)

# Slot vectors built to stress the tie-break: a few distinct values
# repeated (equal remainders), many zero slots, and single slots.
tie_lists = st.one_of(
    st.lists(st.sampled_from([0, 0, 1, 3, 5, 8]), min_size=1, max_size=16),
    st.lists(st.integers(1, 1000), min_size=1, max_size=1),
    st.integers(1, 50).flatmap(
        lambda v: st.lists(st.sampled_from([0, v]), min_size=1, max_size=16)
    ),
).filter(lambda a: sum(a) > 0)


def numpy_proportional_take(arr: np.ndarray, k: int, total: int) -> np.ndarray:
    """The former numpy implementation, kept verbatim as the oracle."""
    if k == total:
        return arr.copy()
    prod = arr * k
    take = prod // total
    deficit = int(k - take.sum())
    if deficit:
        rem = prod - take * total
        order = np.argsort(-rem, kind="stable")[:deficit]
        take[order] += 1
    return take


class TestProportionalTakeProperties:
    @given(count_lists, st.data())
    def test_take_invariants(self, arr, data):
        total = sum(arr)
        k = data.draw(st.integers(1, total))
        take = proportional_take(list(arr), k, total)
        assert sum(take) == k
        assert len(take) == len(arr)
        assert all(t >= 0 for t in take)
        assert all(t <= a for t, a in zip(take, arr))

    @given(st.one_of(count_lists, tie_lists), st.data())
    @settings(max_examples=300)
    def test_matches_numpy_oracle(self, arr, data):
        """Element for element, the integer split equals the old
        ``argsort(-rem, kind="stable")`` largest-remainder split."""
        total = sum(arr)
        k = data.draw(st.integers(0, total))
        expected = numpy_proportional_take(
            np.array(arr, dtype=np.int64), k, total
        )
        take = proportional_take(list(arr), k, total)
        assert take == expected.tolist()
        assert all(type(t) is int for t in take)

    @given(count_lists)
    def test_repeated_takes_drain_exactly(self, arr):
        """Carving g-chunks until empty conserves every slot's count."""
        total = sum(arr)
        remaining = list(arr)
        g = max(1, total // 7)
        taken = [0] * len(arr)
        left = total
        while left > 0:
            k = min(g, left)
            part = proportional_take(remaining, k, left)
            remaining = [r - p for r, p in zip(remaining, part)]
            taken = [t + p for t, p in zip(taken, part)]
            left -= k
        assert taken == arr
        assert remaining == [0] * len(arr)


class TestCountBufferProperties:
    @given(
        st.lists(
            st.tuples(st.integers(1, 50), st.floats(0, 1e6, allow_nan=False)),
            min_size=1,
            max_size=30,
        ),
        st.integers(1, 64),
    )
    @settings(max_examples=50)
    def test_chunked_drain_conserves_count_and_tsum(self, adds, g):
        buf = CountBuffer(10**9)
        total = 0
        t_sum = 0.0
        for n, t in adds:
            buf.add_counts(n, now=t)
            total += n
            t_sum += n * t
        drained = 0
        drained_tsum = 0.0
        while not buf.empty:
            batch = buf.take(min(g, buf.count))
            drained += batch.count
            drained_tsum += batch.t_sum
        assert drained == total
        np.testing.assert_allclose(drained_tsum, t_sum, rtol=1e-9)

    @given(st.lists(st.integers(0, 7), min_size=1, max_size=300))
    def test_item_buffer_fifo(self, dsts):
        buf = ItemBuffer(10**9)
        for i, d in enumerate(dsts):
            buf.add(Item(d, 0, float(i)))
        out = buf.drain()
        assert [it.dst for it in out] == dsts
