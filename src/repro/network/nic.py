"""Per-node NIC with serialized injection and reception.

Each physical node owns one NIC. Both directions are modelled as
work-conserving FIFO servers using the *virtual clock* technique: a
``next_free`` watermark advances by the per-message occupancy
(``nic_msg_ns + bytes * beta``), which reproduces FIFO queueing delays
exactly without per-queue-slot events.

The receive side hands completed messages to a ``sink`` callable
installed by the runtime (the destination process's comm thread in SMP
mode, the destination worker directly in non-SMP mode).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.errors import SimulationError
from repro.machine.costs import CostModel
from repro.network.message import NetMessage
from repro.sim.engine import Engine


@dataclass
class NicStats:
    """Traffic counters for one NIC."""

    tx_messages: int = 0
    tx_bytes: int = 0
    rx_messages: int = 0
    rx_bytes: int = 0
    #: Total simulated time messages spent queued behind the tx server.
    tx_queue_wait_ns: float = 0.0
    rx_queue_wait_ns: float = 0.0


@dataclass
class Nic:
    """One node's network interface.

    Parameters
    ----------
    engine:
        The simulation engine (for scheduling arrivals).
    costs:
        Cost model supplying occupancy and wire constants.
    node_id:
        Owning physical node.
    """

    engine: Engine
    costs: CostModel
    node_id: int
    stats: NicStats = field(default_factory=NicStats)
    _tx_free: float = 0.0
    _rx_free: float = 0.0
    #: Installed by the runtime: receives messages that finished rx.
    sink: Optional[Callable[[NetMessage], None]] = None
    #: Installed by the runtime when a fault plan is active; ``None``
    #: keeps both directions fault-free with one check per message.
    faults: Optional[object] = None

    def inject(self, msg: NetMessage, dst_nic: "Nic", wire_latency_ns: float) -> None:
        """Serialize ``msg`` onto the wire towards ``dst_nic``.

        Called at the simulated time the message reaches the NIC (after
        comm-thread service in SMP mode). The message arrives at the
        destination NIC ``occupancy + wire latency`` later, subject to
        tx-side queueing.

        With a fault injector attached, the wire dice roll here — at the
        source NIC, after the tx occupancy is booked: a dropped message
        still paid to leave the node, it just never arrives.
        """
        now = self.engine.now
        occupancy = self.costs.tx_occupancy_ns(msg.size_bytes)
        faults = self.faults
        if faults is not None:
            occupancy *= faults.nic_occupancy_multiplier(self.node_id, now)
        start = self._tx_free if self._tx_free > now else now
        self.stats.tx_queue_wait_ns += start - now
        self._tx_free = start + occupancy
        self.stats.tx_messages += 1
        self.stats.tx_bytes += msg.size_bytes
        tracer = self.engine.tracer
        if tracer is not None and tracer.wants("msg"):
            tracer.record(
                "msg", hop="nic_tx", node=self.node_id, msg_id=msg.msg_id,
                start=start, dur=occupancy,
            )
        arrival = self._tx_free + wire_latency_ns
        if faults is None:
            span = msg.span
            if span is not None:
                span.nic_tx_queue_ns += start - now
                span.wire_ns += occupancy + wire_latency_ns
            # Cross-node arrivals ride a per-(src, dst) wire-channel seq
            # slot, whose allocation order depends only on the sender;
            # the slot fixes the arrival's place in the tie-break order.
            self.engine.wire_call_at(
                arrival, dst_nic.receive, (msg,), self.node_id, dst_nic.node_id
            )
            return
        for copy, extra_ns in faults.wire_outcomes(msg, dst_nic.node_id, now):
            span = copy.span
            if span is not None:
                span.nic_tx_queue_ns += start - now
                span.wire_ns += occupancy + wire_latency_ns + extra_ns
            self.engine.wire_call_at(
                arrival + extra_ns, dst_nic.receive, (copy,),
                self.node_id, dst_nic.node_id,
            )

    def receive(self, msg: NetMessage) -> None:
        """Serialize an arriving message through the rx side, then sink it."""
        if self.sink is None:
            raise SimulationError(f"NIC {self.node_id} has no sink installed")
        now = self.engine.now
        occupancy = self.costs.rx_occupancy_ns(msg.size_bytes)
        if self.faults is not None:
            occupancy *= self.faults.nic_occupancy_multiplier(self.node_id, now)
        start = self._rx_free if self._rx_free > now else now
        self.stats.rx_queue_wait_ns += start - now
        self._rx_free = start + occupancy
        self.stats.rx_messages += 1
        self.stats.rx_bytes += msg.size_bytes
        span = msg.span
        if span is not None:
            span.nic_rx_ns += (start - now) + occupancy
        tracer = self.engine.tracer
        if tracer is not None and tracer.wants("msg"):
            tracer.record(
                "msg", hop="nic_rx", node=self.node_id, msg_id=msg.msg_id,
                start=start, dur=occupancy,
            )
        self.engine.call_at(self._rx_free, self.sink, (msg,))

    @property
    def tx_backlog_ns(self) -> float:
        """How far the tx server is booked beyond 'now' (queue depth)."""
        return max(0.0, self._tx_free - self.engine.now)

    @property
    def rx_backlog_ns(self) -> float:
        """How far the rx server is booked beyond 'now'."""
        return max(0.0, self._rx_free - self.engine.now)
