"""Per-scheme statistics: the paper's two metrics and their inputs.

**Overhead** shows up as message/byte counts and the simulated run time;
**latency** is tracked per delivered item — exactly (mean/min/max via
moments) plus optionally percentiles from one of two backends: a
deterministic reservoir sample (``sample_size > 0``) or a fixed-bucket
log2 histogram (``histogram=True``; constant memory, no RNG — what the
observability layer uses).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.obs.hist import Log2Histogram


class LatencyAggregate:
    """Exact moments + an optional percentile backend.

    Parameters
    ----------
    sample_size:
        Reservoir capacity; 0 disables the reservoir backend.
    seed:
        Reservoir RNG seed (deterministic replacement).
    histogram:
        Use a :class:`~repro.obs.hist.Log2Histogram` backend instead.
        Ignored when a reservoir is configured (the reservoir gives
        finer percentiles; the histogram never allocates per-sample).
    """

    __slots__ = (
        "count", "total", "min", "max", "_reservoir", "_rng", "_seen", "_hist"
    )

    def __init__(
        self, sample_size: int = 0, seed: int = 0, histogram: bool = False
    ) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = 0.0
        self._reservoir = (
            np.empty(sample_size, dtype=np.float64) if sample_size else None
        )
        self._rng = np.random.default_rng(seed) if sample_size else None
        self._seen = 0
        self._hist = (
            Log2Histogram() if histogram and not sample_size else None
        )

    def record(self, latency_ns: float, weight: int = 1) -> None:
        """Record ``weight`` items with the given (mean) latency."""
        self.count += weight
        self.total += latency_ns * weight
        if latency_ns < self.min:
            self.min = latency_ns
        if latency_ns > self.max:
            self.max = latency_ns
        if self._reservoir is not None:
            self._sample(latency_ns, weight)
        elif self._hist is not None:
            self._hist.record(latency_ns, weight)

    def record_bulk(self, count: int, t_sum: float, t_min: float, now: float) -> None:
        """Record a bulk delivery from timestamp moments.

        Mean latency is exact (``now*count - t_sum``); min/max use the
        batch mean and the oldest item respectively.
        """
        if count <= 0:
            return
        self.count += count
        self.total += now * count - t_sum
        mean = now - t_sum / count
        if mean < self.min:
            self.min = mean
        oldest = now - t_min
        if oldest > self.max:
            self.max = oldest
        if self._reservoir is not None:
            self._sample(mean, count)
        elif self._hist is not None:
            self._hist.record(mean, count)

    def _sample(self, value: float, weight: int) -> None:
        res = self._reservoir
        cap = len(res)
        for _ in range(min(weight, 4)):  # cap per-call work
            self._seen += 1
            if self._seen <= cap:
                res[self._seen - 1] = value
            else:
                j = int(self._rng.integers(0, self._seen))
                if j < cap:
                    res[j] = value

    @property
    def mean(self) -> float:
        """Mean item latency (ns); 0 when nothing recorded."""
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> Optional[float]:
        """Approximate percentile from the active backend (None if none)."""
        if self._reservoir is not None and self._seen:
            filled = self._reservoir[: min(self._seen, len(self._reservoir))]
            return float(np.percentile(filled, q))
        if self._hist is not None:
            return self._hist.percentile(q)
        return None


class NodeShardedLatency:
    """Per-node latency shards, folded in fixed node order at read time.

    Float accumulation is order-sensitive: the fold order decides the
    low bits of every mean. Multi-node runtimes keep one shard per
    simulated node and fold the shards in fixed node order when read,
    and that order is part of the simulated result. Replacing the shards
    with one accumulator written in global event order would change the
    mean-latency bits of the multi-node reference outputs. Single-node
    runtimes keep the plain :class:`LatencyAggregate`.

    The recording shard is selected by ``engine.current_owner`` — the
    node that owns the event being executed (records happen in delivery
    handlers, which run on the destination node).
    """

    __slots__ = ("shards", "_engine")

    def __init__(
        self,
        n_nodes: int,
        engine,
        sample_size: int = 0,
        seed: int = 0,
        histogram: bool = False,
    ) -> None:
        self._engine = engine
        self.shards = [
            LatencyAggregate(
                sample_size,
                seed=seed + 0x9E3779B1 * (node + 1),
                histogram=histogram,
            )
            for node in range(n_nodes)
        ]

    def record(self, latency_ns: float, weight: int = 1) -> None:
        self.shards[self._engine.current_owner].record(latency_ns, weight)

    def record_bulk(self, count: int, t_sum: float, t_min: float, now: float) -> None:
        self.shards[self._engine.current_owner].record_bulk(
            count, t_sum, t_min, now
        )

    @property
    def count(self) -> int:
        return sum(s.count for s in self.shards)

    @property
    def total(self) -> float:
        total = 0.0
        for s in self.shards:
            total += s.total
        return total

    @property
    def min(self) -> float:
        return min(s.min for s in self.shards)

    @property
    def max(self) -> float:
        return max(s.max for s in self.shards)

    @property
    def mean(self) -> float:
        count = self.count
        return self.total / count if count else 0.0

    def percentile(self, q: float) -> Optional[float]:
        """Percentile over the union of the shards' backends."""
        parts = [
            s._reservoir[: min(s._seen, len(s._reservoir))]
            for s in self.shards
            if s._reservoir is not None and s._seen
        ]
        if parts:
            return float(np.percentile(np.concatenate(parts), q))
        merged: Optional[Log2Histogram] = None
        for s in self.shards:
            if s._hist is not None:
                if merged is None:
                    merged = Log2Histogram()
                merged.merge(s._hist)
        if merged is not None and merged.count:
            return merged.percentile(q)
        return None


@dataclass
class TramStats:
    """Counters for one scheme instance."""

    items_inserted: int = 0
    items_delivered: int = 0
    items_bypassed_local: int = 0
    #: Messages sent because a buffer filled.
    messages_full: int = 0
    #: Messages sent by explicit / idle / timer / priority flushes.
    messages_flush: int = 0
    bytes_sent: int = 0
    #: Items inserted through the PP shared-buffer atomic path.
    atomic_inserts: int = 0
    #: Elements processed by grouping/sorting passes (source or dest).
    group_elements: int = 0
    #: Within-process section sends performed at destinations.
    local_sections: int = 0
    #: Intra-node forwards performed by node-level schemes (WNs/NN).
    messages_forwarded: int = 0
    #: Distinct buffers ever allocated and their total capacity in bytes
    #: (the §III-C memory-overhead measurement).
    buffers_allocated: int = 0
    buffer_bytes_allocated: int = 0
    flushes_requested: int = 0
    #: Buffer flushes triggered by the priority threshold (future-work
    #: feature); these messages are also counted in messages_flush.
    priority_flushes: int = 0
    #: Destination processes this scheme fell back to direct sends for
    #: (reliability retry budget exhausted).
    degraded_destinations: int = 0
    #: Items sent as direct per-item messages because their destination
    #: pair was degraded.
    direct_fallback_sends: int = 0
    #: Flush-timer escalations performed when a destination degraded.
    flush_escalations: int = 0
    #: Times the flow controller escalated this scheme (timer stretch +
    #: buffer growth) because the pipeline was overloaded.
    overload_escalations: int = 0
    #: Items dropped (and loss-accounted) because their destination
    #: process was confirmed dead — at insert or in pooled buffers.
    dead_peer_drops: int = 0
    #: Routing decisions diverted around a dead intermediary by a
    #: routed scheme (Routed2D alternate hop, WNs round-robin skip).
    failover_reroutes: int = 0
    latency: LatencyAggregate = field(default_factory=LatencyAggregate)

    @property
    def messages_sent(self) -> int:
        """Total aggregated messages that left source PEs."""
        return self.messages_full + self.messages_flush

    @property
    def pending_items(self) -> int:
        """Items inserted but not yet delivered (nor bypassed locally)."""
        return self.items_inserted - self.items_delivered

    def summary(self) -> dict:
        """Plain-dict snapshot used by the harness reports."""
        return {
            "items_inserted": self.items_inserted,
            "items_delivered": self.items_delivered,
            "items_bypassed_local": self.items_bypassed_local,
            "pending_items": self.pending_items,
            "messages_sent": self.messages_sent,
            "messages_full": self.messages_full,
            "messages_flush": self.messages_flush,
            "bytes_sent": self.bytes_sent,
            "mean_latency_ns": self.latency.mean,
            "min_latency_ns": self.latency.min if self.latency.count else 0.0,
            "max_latency_ns": self.latency.max if self.latency.count else 0.0,
            "atomic_inserts": self.atomic_inserts,
            "group_elements": self.group_elements,
            "buffer_bytes_allocated": self.buffer_bytes_allocated,
            "degraded_destinations": self.degraded_destinations,
            "direct_fallback_sends": self.direct_fallback_sends,
            "flush_escalations": self.flush_escalations,
            "overload_escalations": self.overload_escalations,
            "latency_p50_ns": self.latency.percentile(50),
            "latency_p99_ns": self.latency.percentile(99),
        }

    def crash_summary(self) -> dict:
        """Crash-fabric counters, merged into reports only when the
        fabric is armed so crash-free artifacts stay byte-identical."""
        return {
            "dead_peer_drops": self.dead_peer_drops,
            "failover_reroutes": self.failover_reroutes,
        }
