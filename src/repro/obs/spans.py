"""Stage-attributed latency spans.

Every aggregated message can carry a :class:`MsgSpan`: a mutable scratch
record the transport components (comm threads, NICs, workers) fill in as
the message moves. At the destination grouping handler the scheme folds
the span into its per-scheme :class:`StageLatency`, attributing each
item's end-to-end latency to the lifecycle stages of the paper's
communication path:

========================  ==============================================
stage                     simulated time attributed
========================  ==============================================
``src_buffer``            item creation -> message release, minus the
                          source grouping work
``src_group``             source-side grouping CPU (WsP only)
``retransmit``            wait between a message's first release and the
                          release of the retransmitted copy that was
                          finally delivered (reliability layer only;
                          accumulated in ``MsgSpan.retransmit_ns``)
``bp_stall``              wait parked at a flow-control credit gate
                          before the comm thread / NIC would accept the
                          message (flow subsystem only; accumulated in
                          ``MsgSpan.bp_stall_ns``)
``ct_queue``              queueing behind comm threads (both sides)
``ct_service``            comm-thread service (both sides)
``nic_tx_queue``          queueing behind the source NIC tx server
``wire``                  NIC tx occupancy + wire flight (or the
                          ``alpha_intra`` hop for intra-node routes)
``nic_rx``                destination NIC rx queueing + occupancy
``dst_group``             arrival at the grouping PE -> grouping-handler
                          start (queueing behind application tasks)
``local_delivery``        enqueue hops and within-process section sends
                          (grouping PE -> final destination PE); also
                          the whole path for bypassed local items
``handler``               per-item application handler CPU
========================  ==============================================

Everything except ``handler`` partitions the interval
``[item created, delivery-handler start]`` — which is exactly what
``TramStats.latency`` measures — so the stage totals sum to the
end-to-end latency total (the property the test-suite checks). The
``handler`` stage is extra CPU charged *after* the latency timestamp and
is excluded from that identity.

Multi-hop schemes (WNs/NN forwards, R2D intermediate hops) restart
attribution when they re-emit: the forwarded leg's ``src_buffer``
absorbs all time up to its own release, so the partition still holds.
"""

from __future__ import annotations

from typing import Dict

from repro.obs.hist import Log2Histogram

#: All lifecycle stages, in path order.
STAGES = (
    "src_buffer",
    "src_group",
    "retransmit",
    "bp_stall",
    "ct_queue",
    "ct_service",
    "nic_tx_queue",
    "wire",
    "nic_rx",
    "dst_group",
    "local_delivery",
    "handler",
)

#: The stages that partition [created, delivered] (``handler`` is CPU
#: charged after the delivery timestamp).
LATENCY_STAGES = tuple(s for s in STAGES if s != "handler")


class MsgSpan:
    """Per-message transit scratch, filled by the transport components.

    Times are accumulated nanoseconds (not timestamps), except
    ``pe_arrival`` which is the absolute time the destination worker
    enqueued the grouping handler.
    """

    __slots__ = (
        "group_ns",
        "retransmit_ns",
        "bp_stall_ns",
        "ct_queue_ns",
        "ct_service_ns",
        "nic_tx_queue_ns",
        "wire_ns",
        "nic_rx_ns",
        "pe_arrival",
    )

    def __init__(self, group_ns: float = 0.0) -> None:
        self.group_ns = group_ns
        self.retransmit_ns = 0.0
        self.bp_stall_ns = 0.0
        self.ct_queue_ns = 0.0
        self.ct_service_ns = 0.0
        self.nic_tx_queue_ns = 0.0
        self.wire_ns = 0.0
        self.nic_rx_ns = 0.0
        self.pe_arrival = 0.0

    def clone(self) -> "MsgSpan":
        """Independent copy — used when the fault fabric duplicates a
        message, so each physical copy attributes its own transit."""
        c = MsgSpan(self.group_ns)
        c.retransmit_ns = self.retransmit_ns
        c.bp_stall_ns = self.bp_stall_ns
        c.ct_queue_ns = self.ct_queue_ns
        c.ct_service_ns = self.ct_service_ns
        c.nic_tx_queue_ns = self.nic_tx_queue_ns
        c.wire_ns = self.wire_ns
        c.nic_rx_ns = self.nic_rx_ns
        c.pe_arrival = self.pe_arrival
        return c

    def transit_ns(self) -> float:
        """Accumulated comm-thread/NIC/wire time (excludes grouping and
        the pre-release retransmit wait)."""
        return (
            self.bp_stall_ns
            + self.ct_queue_ns
            + self.ct_service_ns
            + self.nic_tx_queue_ns
            + self.wire_ns
            + self.nic_rx_ns
        )


class StageLatency:
    """Per-scheme stage histograms (one :class:`Log2Histogram` each)."""

    __slots__ = ("hists",)

    def __init__(self) -> None:
        self.hists: Dict[str, Log2Histogram] = {s: Log2Histogram() for s in STAGES}

    def record(self, stage: str, per_item_ns: float, items: int = 1) -> None:
        """Attribute ``per_item_ns`` to ``stage`` for ``items`` items."""
        self.hists[stage].record(per_item_ns, items)

    def hist(self, stage: str) -> Log2Histogram:
        """The live histogram for ``stage`` (read accessor; the sharded
        variant returns a fold instead)."""
        return self.hists[stage]

    def total_ns(self, include_handler: bool = False) -> float:
        """Summed attributed nanoseconds across stages."""
        stages = STAGES if include_handler else LATENCY_STAGES
        return sum(self.hists[s].total for s in stages)

    def to_dict(self) -> Dict[str, dict]:
        """Stage -> summary dict, omitting stages with no observations."""
        return {
            s: h.summary() for s, h in self.hists.items() if h.count
        }


class NodeShardedStageLatency:
    """Per-node :class:`StageLatency` shards with read-time folds.

    The multi-node twin of
    :class:`repro.tram.stats.NodeShardedLatency`, and for the same
    reason: histogram ``total`` floats are order-sensitive accumulators,
    so records are kept node-local (selected by ``engine.current_owner``)
    and folded in fixed node order when read; that fold order fixes the
    low bits of every multi-node stage total.
    """

    __slots__ = ("shards", "_engine")

    def __init__(self, n_nodes: int, engine) -> None:
        self._engine = engine
        self.shards = [StageLatency() for _ in range(n_nodes)]

    def record(self, stage: str, per_item_ns: float, items: int = 1) -> None:
        self.shards[self._engine.current_owner].record(stage, per_item_ns, items)

    def hist(self, stage: str) -> Log2Histogram:
        merged = Log2Histogram()
        for shard in self.shards:
            merged.merge(shard.hists[stage])
        return merged

    @property
    def hists(self) -> Dict[str, Log2Histogram]:
        return {s: self.hist(s) for s in STAGES}

    def total_ns(self, include_handler: bool = False) -> float:
        stages = STAGES if include_handler else LATENCY_STAGES
        total = 0.0
        for s in stages:
            for shard in self.shards:
                total += shard.hists[s].total
        return total

    def to_dict(self) -> Dict[str, dict]:
        return {
            s: h.summary() for s, h in self.hists.items() if h.count
        }
