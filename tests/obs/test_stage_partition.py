"""The stage-partition identity: the core correctness property.

For every delivered item, the non-handler stages of the per-scheme
breakdown must exactly partition the end-to-end latency the scheme's
``LatencyAggregate`` records — nothing double-counted, nothing missing.
The acceptance run is the fig12 path (index-gather), plus per-item and
non-SMP variants.
"""

import numpy as np
import pytest

from repro.apps.indexgather import run_indexgather
from repro.machine import MachineConfig, nonsmp_machine
from repro.machine.costs import CostModel
from repro.obs import ObsConfig
from repro.runconfig import RunConfig, RunContext
from repro.obs.spans import STAGES
from repro.runtime.system import RuntimeSystem
from repro.tram import SCHEME_NAMES, TramConfig, make_scheme

REL_TOL = 1e-6

MACHINE = MachineConfig(nodes=2, processes_per_node=2, workers_per_process=2)


def nonempty_stages(scheme):
    """Stage names that actually accumulated time (the table pre-creates
    a histogram for every stage, so membership alone means nothing)."""
    return {s for s, h in scheme.stages.hists.items() if h.count}


def assert_partition(scheme):
    """Stages (minus handler) must sum to the recorded latency total."""
    stages = scheme.stages
    assert stages is not None
    total = stages.total_ns(include_handler=False)
    latency = scheme.stats.latency.total
    assert total == pytest.approx(latency, rel=REL_TOL)
    assert set(stages.hists) == set(STAGES)
    # Counts are per recorded *segment*, not per item (a remote item gets
    # e.g. a message-level local_delivery residual plus its own dequeue
    # slice), so we only sanity-check that time never comes count-free.
    for hist in stages.hists.values():
        if hist.total > 0.0:
            assert hist.count > 0


class TestIndexGatherPartition:
    """The fig12 workload (bulk request + item response traffic)."""

    @pytest.mark.parametrize("scheme", SCHEME_NAMES + ("WNs", "NN"))
    def test_partition_holds(self, scheme):
        with RunContext(RunConfig(obs=ObsConfig())) as session:
            run_indexgather(
                MACHINE, scheme, requests_per_pe=300, buffer_items=32,
                latency_sample=0, seed=1,
            )
        assert session.records, "no runs captured"
        for snap in session.records:
            for sd in snap["schemes"]:
                total = sd["stage_latency_total_ns"]
                latency = sd["latency"]["total_ns"]
                assert total == pytest.approx(latency, rel=REL_TOL)
                assert latency > 0.0


def _per_item_run(scheme_name, machine=MACHINE, bypass_local=True):
    rt = RuntimeSystem(machine, seed=3, obs=ObsConfig())
    tram = make_scheme(
        scheme_name, rt,
        TramConfig(buffer_items=16, idle_flush=True,
                   bypass_local=bypass_local),
        deliver_item=lambda ctx, it: None,
    )
    W = machine.total_workers

    def driver(ctx):
        rng = rt.rng.stream(f"part/{ctx.worker.wid}")
        for _ in range(150):
            tram.insert(ctx, dst=int(rng.integers(0, W)))

    for w in range(W):
        rt.post(w, driver)
    rt.run()
    return tram


class TestPerItemPartition:
    @pytest.mark.parametrize(
        "scheme", ("WW", "WPs", "WsP", "PP", "WNs", "NN", "R2D", "Direct")
    )
    def test_partition_holds(self, scheme):
        tram = _per_item_run(scheme)
        assert tram.stats.items_delivered > 0
        assert_partition(tram)

    def test_partition_without_bypass(self):
        tram = _per_item_run("WPs", bypass_local=False)
        assert tram.stats.items_bypassed_local == 0
        assert_partition(tram)

    def test_bypassed_items_are_local_delivery(self):
        tram = _per_item_run("WPs", machine=MachineConfig(1, 1, 4))
        # Single process: with bypass on, everything is a local bypass.
        assert tram.stats.items_bypassed_local == tram.stats.items_inserted
        assert nonempty_stages(tram) == {"local_delivery", "handler"}
        assert_partition(tram)

    def test_nonsmp_partition(self):
        tram = _per_item_run("WW", machine=nonsmp_machine(2, ranks_per_node=4))
        assert tram.stats.items_delivered > 0
        stages = nonempty_stages(tram)
        assert "ct_queue" not in stages  # no comm threads in non-SMP
        assert "ct_service" not in stages
        assert_partition(tram)


class TestHandlerStage:
    def test_handler_charged_per_item(self):
        tram = _per_item_run("WPs")
        handler = tram.stages.hists.get("handler")
        assert handler is not None
        assert handler.count == tram.stats.items_delivered
        assert handler.mean == pytest.approx(CostModel().handler_ns)


class TestSaturatedPartition:
    """Queueing-heavy regimes exercise the ct/nic wait stages."""

    def test_commthread_saturated_has_ct_queue(self):
        machine = MachineConfig(nodes=2, processes_per_node=1,
                                workers_per_process=8)
        tram = _per_item_run("WW", machine=machine)
        assert "ct_queue" in nonempty_stages(tram)
        assert_partition(tram)

    def test_nic_saturated_has_nic_queue(self):
        costs = CostModel().replace(
            comm_msg_ns=20.0, comm_byte_ns=0.0,
            nic_msg_ns=2000.0, beta_ns_per_byte=2.0,
        )
        rt = RuntimeSystem(MACHINE, costs, seed=3, obs=ObsConfig())
        tram = make_scheme(
            "WW", rt, TramConfig(buffer_items=8, idle_flush=True),
            deliver_item=lambda ctx, it: None,
        )
        W = MACHINE.total_workers

        def driver(ctx):
            rng = rt.rng.stream(f"nic/{ctx.worker.wid}")
            for _ in range(150):
                tram.insert(ctx, dst=int(rng.integers(0, W)))

        for w in range(W):
            rt.post(w, driver)
        rt.run()
        assert "nic_tx_queue" in nonempty_stages(tram)
        assert_partition(tram)
