"""Ping-pong measurement (paper Fig 1).

Reproduces the motivating experiment: the one-way time (RTT/2) of a
message between two physical nodes, swept over message sizes. For small
messages the time is flat — dominated by the per-message latency alpha
(microseconds) — while beyond ~1 KB the ``bytes * beta`` term takes over
(beta ≈ 0.1 ns/byte, i.e. ~12 GB/s).

The measurement runs through the full simulated path (worker → comm
thread → NIC → wire → NIC → comm thread → worker) rather than just
evaluating the cost formula, so it also validates the transport stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.machine.costs import CostModel
from repro.machine.topology import MachineConfig


@dataclass(frozen=True)
class PingPongResult:
    """One row of the ping-pong sweep."""

    size_bytes: int
    one_way_ns: float
    rtt_ns: float


def measure_pingpong(
    sizes: Sequence[int],
    costs: CostModel | None = None,
    *,
    smp: bool = True,
    iterations: int = 4,
) -> List[PingPongResult]:
    """Measure RTT/2 between two nodes for each message size.

    Parameters
    ----------
    sizes:
        Payload sizes (bytes, excluding header) to sweep.
    costs:
        Cost model; defaults to the Delta-shaped preset.
    smp:
        Whether the endpoints run in SMP mode (one worker + comm thread
        per process) or non-SMP.
    iterations:
        Ping-pong round trips per size; the mean RTT is reported
        (the simulator is deterministic, so this mainly amortizes the
        first-message path setup).

    Returns
    -------
    list of PingPongResult
        One entry per size, in input order.
    """
    # Imported lazily: network is a lower layer than runtime.
    from repro.network.message import NetMessage
    from repro.runtime.system import RuntimeSystem

    costs = costs or CostModel()
    results: List[PingPongResult] = []
    for size in sizes:
        machine = MachineConfig(
            nodes=2,
            processes_per_node=1,
            workers_per_process=1,
            smp=smp,
        )
        rt = RuntimeSystem(machine, costs)
        state = {"t_send": 0.0, "rtts": []}

        def on_ping(ctx, msg, _rt=rt, _size=size):
            reply = NetMessage(
                kind="pong",
                src_worker=1,
                dst_process=0,
                dst_worker=0,
                size_bytes=_rt.costs.message_bytes(1, _size),
            )
            if not _rt.machine.smp:
                ctx.charge(_rt.costs.nonsmp_send_service_ns(reply.size_bytes))
            ctx.charge(_rt.costs.pack_msg_ns)
            ctx.emit(_rt.transport.send, reply)

        def on_pong(ctx, msg, _rt=rt, _size=size, _state=state):
            _state["rtts"].append(ctx.now - _state["t_send"])
            if len(_state["rtts"]) < iterations:
                send_ping(ctx, _rt, _size, _state)

        def send_ping(ctx, _rt, _size, _state):
            _state["t_send"] = ctx.now
            ping = NetMessage(
                kind="ping",
                src_worker=0,
                dst_process=1,
                dst_worker=1,
                size_bytes=_rt.costs.message_bytes(1, _size),
            )
            if not _rt.machine.smp:
                ctx.charge(_rt.costs.nonsmp_send_service_ns(ping.size_bytes))
            ctx.charge(_rt.costs.pack_msg_ns)
            ctx.emit(_rt.transport.send, ping)

        rt.register_handler("ping", on_ping)
        rt.register_handler("pong", on_pong)
        rt.post(0, lambda ctx: send_ping(ctx, rt, size, state))
        rt.run()
        rtts = state["rtts"]
        if not rtts:
            raise RuntimeError("ping-pong produced no round trips")
        mean_rtt = sum(rtts) / len(rtts)
        results.append(
            PingPongResult(size_bytes=size, one_way_ns=mean_rtt / 2.0, rtt_ns=mean_rtt)
        )
    return results
