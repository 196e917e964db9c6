"""Cross-scheme equivalence properties.

All schemes implement the same abstract contract: the multiset of
(destination, payload) deliveries is identical regardless of the scheme
(only *when* and *through what* differ). WsP must deliver exactly what
WPs delivers; node-level schemes must match too.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import MachineConfig
from repro.runtime.system import RuntimeSystem
from repro.tram import TramConfig, make_scheme

MACHINE = MachineConfig(nodes=2, processes_per_node=2, workers_per_process=2)

traffic = st.lists(
    st.tuples(st.integers(0, 7), st.integers(0, 7)),
    min_size=1,
    max_size=40,
)


def deliveries_for(scheme, sends, g):
    rt = RuntimeSystem(MACHINE, seed=0)
    got = []
    tram = make_scheme(
        scheme, rt, TramConfig(buffer_items=g, item_bytes=8, idle_flush=True),
        deliver_item=lambda ctx, it: got.append((ctx.worker.wid, it.payload)),
    )

    def driver(ctx, my):
        for ident, dst in my:
            tram.insert(ctx, dst=dst, payload=ident)

    by_src = {}
    for i, (src, dst) in enumerate(sends):
        by_src.setdefault(src, []).append((i, dst))
    for src, my in by_src.items():
        rt.post(src, driver, my)
    rt.run(max_events=1_000_000)
    return sorted(got)


class TestDeliveryEquivalence:
    @given(traffic, st.integers(1, 8))
    @settings(max_examples=30, deadline=None)
    def test_wsp_equals_wps(self, sends, g):
        assert deliveries_for("WsP", sends, g) == deliveries_for(
            "WPs", sends, g
        )

    @given(traffic, st.integers(1, 8))
    @settings(max_examples=20, deadline=None)
    def test_all_schemes_same_delivery_multiset(self, sends, g):
        reference = deliveries_for("Direct", sends, g)
        for scheme in ("WW", "WPs", "PP", "WNs", "NN"):
            assert deliveries_for(scheme, sends, g) == reference


class TestBulkEquivalence:
    @given(
        st.lists(st.integers(0, 200), min_size=8, max_size=8),
        st.integers(1, 32),
    )
    @settings(max_examples=30, deadline=None)
    def test_bulk_totals_match_across_schemes(self, per_dst, g):
        counts = np.array(per_dst, dtype=np.int64)
        totals = {}
        for scheme in ("WW", "WPs", "WsP", "PP", "WNs", "NN"):
            rt = RuntimeSystem(MACHINE, seed=0)
            received = np.zeros(8, dtype=np.int64)

            def deliver(ctx, wid, n, si, sc, received=received):
                received[wid] += n

            tram = make_scheme(
                scheme, rt, TramConfig(buffer_items=g, item_bytes=8),
                deliver_bulk=deliver,
            )

            def driver(ctx, tram=tram):
                if counts.sum():
                    tram.insert_bulk(ctx, counts)
                tram.flush(ctx)

            rt.post(0, driver)
            rt.run(max_events=1_000_000)
            totals[scheme] = received.copy()
        reference = totals["WW"]
        for scheme, received in totals.items():
            assert (received == reference).all(), scheme

    @given(
        st.lists(st.integers(0, 200), min_size=8, max_size=8),
        st.integers(1, 32),
        st.sampled_from(("WW", "WPs", "WsP", "PP", "WNs", "NN")),
    )
    @settings(max_examples=30, deadline=None)
    def test_any_int_sequence_is_accepted(self, per_dst, g, scheme):
        """``insert_bulk`` takes any int sequence: an integer array, a
        list and a tuple of the same counts yield identical per-source
        deliveries, and the caller's sequence is left untouched."""
        outcomes = []
        for counts in (np.array(per_dst, dtype=np.int64), list(per_dst),
                       tuple(per_dst)):
            before = list(counts)
            rt = RuntimeSystem(MACHINE, seed=0)
            got = []

            def deliver(ctx, wid, n, si, sc, got=got):
                assert isinstance(sc, list) and sum(sc) == n
                got.append((wid, n, list(si), sc))

            tram = make_scheme(
                scheme, rt, TramConfig(buffer_items=g, item_bytes=8),
                deliver_bulk=deliver,
            )

            def driver(ctx, tram=tram, counts=counts):
                tram.insert_bulk(ctx, counts)
                tram.flush(ctx)

            rt.post(1, driver)
            rt.run(max_events=1_000_000)
            assert list(counts) == before
            assert sum(n for _, n, _, _ in got) == sum(per_dst)
            outcomes.append((got, rt.engine.now))
        assert outcomes[1] == outcomes[0]
        assert outcomes[2] == outcomes[0]
