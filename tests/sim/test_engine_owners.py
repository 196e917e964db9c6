"""Owner-slot sequence numbers: the sequential engine's tie-break order.

Multi-node runtimes allocate every event's ``seq`` from a per-owner (or
per directed wire channel) counter and encode the slot into it. That
encoding decides how same-time events tie, so it is part of the
simulated result. The unit tests pin the encoding; the output pins run
two toy points and compare them bit for bit with the toy entries of
``perfbench/reference.json`` (seed 0), which change if a multi-node
runtime skips :meth:`~repro.sim.engine.Engine.configure_owners`.
"""

import pytest

from repro.apps import run_histogram, run_indexgather
from repro.errors import SimulationError
from repro.faults import FaultPlan, FaultSession
from repro.flow import FlowConfig, FlowSession
from repro.machine import MachineConfig
from repro.runtime.system import RuntimeSystem
from repro.sim.engine import Engine

N_OWNERS = 3
N_SLOTS = N_OWNERS + N_OWNERS * N_OWNERS


def _owned_engine() -> Engine:
    eng = Engine()
    eng.configure_owners(N_OWNERS)
    return eng


class TestEncoding:
    @pytest.mark.parametrize("owner", range(N_OWNERS))
    def test_call_at_allocates_in_the_current_owners_slot(self, owner):
        eng = _owned_engine()
        eng.current_owner = owner
        for i in range(3):
            eng.call_at(10.0, lambda: None)
        seqs = sorted(ev[1] for ev in eng._heap)
        assert [s % N_SLOTS for s in seqs] == [owner] * 3
        # Each allocation advances only that owner's counter.
        assert [s // N_SLOTS for s in seqs] == [0, 1, 2]

    @pytest.mark.parametrize("src", range(N_OWNERS))
    @pytest.mark.parametrize("dst", range(N_OWNERS))
    def test_wire_seq_uses_the_directed_pair_slot(self, src, dst):
        eng = _owned_engine()
        first = eng.wire_seq(src, dst)
        second = eng.wire_seq(src, dst)
        assert first % N_SLOTS == N_OWNERS + N_OWNERS * src + dst
        assert second == first + N_SLOTS
        # Wire channels never touch the per-owner counters.
        eng.current_owner = src
        eng.call_at(0.0, lambda: None)
        assert eng._heap[0][1] == src

    def test_fired_wire_event_runs_under_its_destination(self):
        eng = _owned_engine()
        seen = []
        for src in range(N_OWNERS):
            for dst in range(N_OWNERS):
                eng.wire_call_at(
                    1.0,
                    lambda d=dst: seen.append((d, eng.current_owner)),
                    (),
                    src,
                    dst,
                )
        eng.run()
        assert len(seen) == N_OWNERS * N_OWNERS
        assert all(dst == owner for dst, owner in seen)

    def test_events_scheduled_inside_a_callback_inherit_its_owner(self):
        eng = _owned_engine()
        seqs = []

        def parent():
            eng.call_after(1.0, lambda: None)
            seqs.append(eng._heap[0][1])

        eng.current_owner = 2
        eng.call_at(0.0, parent)
        eng.current_owner = 0
        eng.run()
        assert seqs[0] % N_SLOTS == 2

    def test_zero_owners_rejected(self):
        with pytest.raises(SimulationError):
            Engine().configure_owners(0)

    def test_configure_after_scheduling_rejected(self):
        eng = Engine()
        eng.call_at(1.0, lambda: None)
        with pytest.raises(SimulationError):
            eng.configure_owners(N_OWNERS)

    def test_configure_after_a_drained_run_rejected(self):
        eng = Engine()
        eng.call_at(1.0, lambda: None)
        eng.run()
        with pytest.raises(SimulationError):
            eng.configure_owners(N_OWNERS)

    def test_multi_node_runtime_configures_one_owner_per_node(self):
        rt = RuntimeSystem(MachineConfig(3, 2, 4))
        assert rt.engine._n_slots == N_SLOTS
        assert RuntimeSystem(MachineConfig(1, 2, 4)).engine._n_slots == 1


#: Scaled SMP node used by the harness figures: 2 processes x 4 workers.
PPN, WPP = 2, 4


class TestOutputPins:
    """Seed-0 toy points; floats are compared bit for bit."""

    def test_histogram_ww_two_nodes(self):
        r = run_histogram(
            MachineConfig(2, PPN, WPP),
            "WW",
            updates_per_pe=400,
            buffer_items=64,
            batch=100,
            seed=0,
        )
        assert {
            "total_time_ns": r.total_time_ns,
            "mean_latency_ns": r.mean_latency_ns,
            "messages_sent": r.messages_sent,
            "messages_flush": r.messages_flush,
            "bytes_sent": r.bytes_sent,
            "buffer_bytes_allocated": r.buffer_bytes_allocated,
            "items_bypassed_local": r.items_bypassed_local,
        } == {
            "total_time_ns": 61085.28000000005,
            "mean_latency_ns": 31616.926650000016,
            "messages_sent": 192,
            "messages_flush": 192,
            "bytes_sent": 50192,
            "buffer_bytes_allocated": 98304,
            "items_bypassed_local": 1662,
        }

    def test_indexgather_ww_two_nodes_faulty_flow(self, monkeypatch):
        runtimes = []
        orig_run = RuntimeSystem.run

        def capture(rt, **kwargs):
            runtimes.append(rt)
            return orig_run(rt, **kwargs)

        monkeypatch.setattr(RuntimeSystem, "run", capture)
        plan = FaultPlan.parse("drop=0.01,dup=0.005")
        flow = FlowConfig.parse(
            "ct_msgs=8,ct_bytes=65536,overload=100000,clear=20000"
        )
        with FaultSession(plan), FlowSession(flow):
            r = run_indexgather(
                MachineConfig(2, PPN, WPP),
                "WW",
                requests_per_pe=200,
                buffer_items=64,
                batch=100,
                seed=0,
            )
        (rt,) = runtimes
        assert {
            "total_time_ns": r.total_time_ns,
            "request_latency_ns": r.request_latency_ns,
            "response_latency_ns": r.response_latency_ns,
            "request_latency_p50_ns": r.request_latency_p50_ns,
            "request_latency_p99_ns": r.request_latency_p99_ns,
            "messages_sent": r.messages_sent,
            "bytes_sent": r.bytes_sent,
            "messages_dropped": rt.faults.stats.messages_dropped,
            "messages_duplicated": rt.faults.stats.messages_duplicated,
            "retransmits": rt.reliable.stats.retransmits,
            "messages_parked": rt.flow.stats.messages_parked,
        } == {
            "total_time_ns": 215455.80000000005,
            "request_latency_ns": 31847.356600000014,
            "response_latency_ns": 50012.218237500005,
            "request_latency_p50_ns": 23299.363636363654,
            "request_latency_p99_ns": 72236.68000000001,
            "messages_sent": 384,
            "bytes_sent": 101152,
            "messages_dropped": 7,
            "messages_duplicated": 2,
            "retransmits": 163,
            "messages_parked": 486,
        }
