"""PingAck — the comm-thread bottleneck microbenchmark (paper §III-A).

Two physical nodes. Every worker PE on node 0 sends ``messages_per_pe``
messages of a given size to the corresponding PE on node 1; each node-1
PE acks to PE 0 once it has received *all* its messages; the measured
time runs from the first send to the last ack (paper Fig 2).

The benchmark sends *runtime* messages directly (no aggregation): its
purpose is to expose how the per-process comm thread serializes
fine-grained traffic. Sweeping processes-per-node while holding the
worker count fixed reproduces Fig 3: SMP with one process per node is
several times slower than non-SMP, and adding processes (more comm
threads) closes the gap.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.machine.costs import CostModel
from repro.machine.topology import MachineConfig
from repro.network.message import NetMessage
from repro.runtime.system import RuntimeSystem


@dataclass(frozen=True)
class PingAckResult:
    """Outcome of one PingAck run."""

    machine: MachineConfig
    messages_per_pe: int
    payload_bytes: int
    #: Time of the last ack's arrival at PE 0 (ns).
    total_time_ns: float
    events: int

    @property
    def label(self) -> str:
        if not self.machine.smp:
            return f"non-SMP {self.machine.workers_per_node} ranks/node"
        return (
            f"SMP {self.machine.processes_per_node} proc x "
            f"{self.machine.workers_per_process} wk"
        )


def run_pingack(
    machine: MachineConfig,
    *,
    messages_per_pe: int = 250,
    payload_bytes: int = 1024,
    burst: int = 8,
    costs: CostModel | None = None,
    seed: int = 0,
) -> PingAckResult:
    """Run PingAck on a two-node machine.

    Parameters
    ----------
    machine:
        Must have exactly 2 nodes; workers on node 0 send to their
        counterparts on node 1.
    messages_per_pe:
        Messages each node-0 PE sends (the paper uses 1000; scaled runs
        use fewer — the bottleneck shape is rate-, not count-driven).
    payload_bytes:
        Application payload per message.
    burst:
        Messages issued per driver task before yielding the PE, allowing
        receive processing to interleave with sending.
    """
    if machine.nodes != 2:
        raise ConfigError("PingAck requires exactly 2 nodes")
    rt = RuntimeSystem(machine, costs, seed=seed)
    wpn = machine.workers_per_node
    size = rt.costs.message_bytes(1, payload_bytes)

    received = [0] * wpn  # per node-1 PE (index = wid - wpn)
    acks = {"n": 0, "t_done": 0.0}

    def driver(ctx, sent: int):
        wid = ctx.worker.wid
        n = min(burst, messages_per_pe - sent)
        for _ in range(n):
            msg = NetMessage(
                kind="pingack.data",
                src_worker=wid,
                dst_process=machine.process_of_worker(wid + wpn),
                dst_worker=wid + wpn,
                size_bytes=size,
                expedited=False,
            )
            ctx.charge(rt.costs.pack_msg_ns)
            if not machine.smp:
                ctx.charge(rt.costs.nonsmp_send_service_ns(size))
            ctx.emit(rt.transport.send, msg)
        sent += n
        if sent < messages_per_pe:
            ctx.emit(ctx.worker.post_task, driver, sent)

    def on_data(ctx, msg):
        idx = ctx.worker.wid - wpn
        received[idx] += 1
        if received[idx] == messages_per_pe:
            ack = NetMessage(
                kind="pingack.ack",
                src_worker=ctx.worker.wid,
                dst_process=machine.process_of_worker(0),
                dst_worker=0,
                size_bytes=rt.costs.message_bytes(1, 8),
                expedited=False,
            )
            ctx.charge(rt.costs.pack_msg_ns)
            if not machine.smp:
                ctx.charge(rt.costs.nonsmp_send_service_ns(ack.size_bytes))
            ctx.emit(rt.transport.send, ack)

    def on_ack(ctx, msg):
        acks["n"] += 1
        if acks["n"] == wpn:
            acks["t_done"] = ctx.now

    rt.register_handler("pingack.data", on_data)
    rt.register_handler("pingack.ack", on_ack)
    for wid in range(wpn):
        rt.post(wid, driver, 0)
    stats = rt.run()
    if acks["n"] != wpn:
        raise ConfigError(f"PingAck incomplete: {acks['n']}/{wpn} acks")
    return PingAckResult(
        machine=machine,
        messages_per_pe=messages_per_pe,
        payload_bytes=payload_bytes,
        total_time_ns=acks["t_done"],
        events=stats.events_fired,
    )
