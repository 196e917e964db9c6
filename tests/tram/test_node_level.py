"""Tests for the node-level extension schemes (WNs / NN)."""

import numpy as np
import pytest

from repro.machine import MachineConfig
from repro.runtime.system import RuntimeSystem
from repro.tram import TramConfig, make_scheme

MACHINE = MachineConfig(nodes=2, processes_per_node=2, workers_per_process=2)


def build(scheme, g=8, **cfg):
    rt = RuntimeSystem(MACHINE, seed=0)
    got = []
    tram = make_scheme(
        scheme, rt, TramConfig(buffer_items=g, item_bytes=8, **cfg),
        deliver_item=lambda ctx, it: got.append((ctx.worker.wid, it.payload)),
    )
    return rt, tram, got


@pytest.mark.parametrize("scheme", ["WNs", "NN"])
class TestNodeLevelDelivery:
    def test_exactly_once_right_worker(self, scheme):
        rt, tram, got = build(scheme)
        W = MACHINE.total_workers

        def driver(ctx):
            wid = ctx.worker.wid
            for i in range(11):
                tram.insert(ctx, dst=(wid + 1 + i) % W, payload=(wid, i, (wid + 1 + i) % W))
            tram.flush(ctx)

        for w in range(W):
            rt.post(w, driver)
        rt.run(max_events=500_000)
        assert len(got) == 11 * W
        for worker, (src, i, dst) in got:
            assert worker == dst
        assert tram.pending_items() == 0

    def test_bulk_conservation_with_sources(self, scheme):
        rt = RuntimeSystem(MACHINE, seed=0)
        per_src = np.zeros(8, dtype=np.int64)
        tram = make_scheme(
            scheme, rt, TramConfig(buffer_items=16, item_bytes=8),
            deliver_bulk=lambda ctx, w, n, si, sc: np.add.at(per_src, si, sc),
        )
        W = MACHINE.total_workers

        def driver(ctx):
            counts = np.full(W, 30, dtype=np.int64)
            tram.insert_bulk(ctx, counts)
            tram.flush_when_done(ctx)

        for w in range(W):
            rt.post(w, driver)
        rt.run(max_events=500_000)
        assert tram.stats.items_delivered == 30 * W * W
        assert (per_src == 30 * W).all()
        assert int(per_src.sum()) == 30 * W * W

    def test_idle_flush_supported(self, scheme):
        rt, tram, got = build(scheme, idle_flush=True)
        rt.post(0, lambda ctx: tram.insert(ctx, dst=7, payload="x"))
        rt.run(max_events=100_000)
        assert [p for _, p in got] == ["x"]


class TestNodeLevelPlacement:
    def test_wns_buffers_per_node(self):
        """One item to every remote worker -> one buffer per remote node."""
        rt, tram, _ = build("WNs", g=100)

        def driver(ctx):
            for dst in range(2, MACHINE.total_workers):
                tram.insert(ctx, dst=dst)
            tram.flush(ctx)

        rt.post(0, driver)
        rt.run(max_events=100_000)
        # Destinations: 2 workers in sibling process (node 0) + 4 on
        # node 1 -> buffers for node 0 and node 1 only.
        assert tram.stats.buffers_allocated == 2
        assert tram.stats.messages_flush == 2

    def test_wns_forwards_cross_process_sections(self):
        rt, tram, got = build("WNs", g=100)

        def driver(ctx):
            for dst in (4, 5, 6, 7):  # both processes of node 1
                tram.insert(ctx, dst=dst)
            tram.flush(ctx)

        rt.post(0, driver)
        rt.run(max_events=100_000)
        assert len(got) == 4
        # The receiving process keeps its own sections and forwards one
        # intra-node message to the sibling process.
        assert tram.stats.messages_forwarded == 1

    def test_nn_node_shared_buffers(self):
        """All four workers of node 0 share one buffer per dest node."""
        rt, tram, _ = build("NN", g=100)

        def driver(ctx):
            tram.insert(ctx, dst=7)

        for w in range(4):  # node 0's workers
            rt.post(w, driver)
        rt.post(0, lambda ctx: tram.flush(ctx), delay=10_000.0)
        rt.run(max_events=100_000)
        assert tram.stats.buffers_allocated == 1
        assert tram.stats.atomic_inserts == 4
        assert tram.stats.messages_flush == 1  # one message, 4 items

    def test_nn_fewer_flush_messages_than_pp(self):
        """NN's end-of-phase flush sends per (node, node) pair."""

        def flush_msgs(scheme):
            rt = RuntimeSystem(MACHINE, seed=0)
            tram = make_scheme(
                scheme, rt, TramConfig(buffer_items=1000, item_bytes=8),
                deliver_item=lambda ctx, it: None,
            )
            W = MACHINE.total_workers

            def driver(ctx):
                for dst in range(W):
                    if not MACHINE.same_process(ctx.worker.wid, dst):
                        tram.insert(ctx, dst=dst)
                tram.flush_when_done(ctx)

            for w in range(W):
                rt.post(w, driver)
            rt.run(max_events=500_000)
            assert tram.pending_items() == 0
            return tram.stats.messages_flush

        assert flush_msgs("NN") < flush_msgs("PP") < flush_msgs("WW")

    def test_nn_contention_exceeds_pp(self):
        """NN atomics span the whole node: costlier than PP's."""
        rt = RuntimeSystem(MACHINE, seed=0)
        costs = rt.costs
        nn_cost = costs.pp_insert_ns(MACHINE.workers_per_node)
        pp_cost = costs.pp_insert_ns(MACHINE.workers_per_process)
        assert nn_cost > pp_cost


class TestNodeLevelLatency:
    def test_extra_hop_vs_wps_single_item(self):
        """A single flushed item pays the forwarding hop under WNs when
        it lands on the wrong process of the destination node."""
        lat = {}
        for scheme in ("WPs", "WNs"):
            rt, tram, got = build(scheme, g=100)

            def driver(ctx, tram=tram):
                tram.insert(ctx, dst=6)
                tram.flush(ctx)

            rt.post(0, driver)
            rt.run(max_events=100_000)
            lat[scheme] = tram.stats.latency.mean
        # WPs routes straight to process 3; WNs may land on process 2
        # first. Either way WNs is never faster for a lone item.
        assert lat["WNs"] >= lat["WPs"]
