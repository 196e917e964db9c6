"""All-to-all personalized exchange (paper §I's first use case).

    "The use-cases for message aggregation range from all-to-all
    communication in MPI, where every rank wishes to send a relatively
    small number of items to every other rank, to streaming scenarios."

Every worker contributes ``items_per_pair`` items to every other
worker, then flushes. This is the *short-stream* extreme: buffers
rarely fill, so the end-of-phase flush term of §III-C dominates and the
destination-process schemes (one flush message per process vs. per
worker) win by the largest factor. An extension beyond the paper's
figures, included because the paper's message-count analysis is exactly
about this regime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.machine.costs import CostModel
from repro.machine.topology import MachineConfig
from repro.runtime.quiescence import QDCounter
from repro.runtime.system import RuntimeSystem
from repro.tram import TramConfig, make_scheme


@dataclass(frozen=True)
class AllToAllResult:
    """Outcome of one all-to-all exchange."""

    scheme: str
    machine: MachineConfig
    items_per_pair: int
    buffer_items: int
    total_time_ns: float
    messages_sent: int
    messages_flush: int
    bytes_sent: int
    mean_latency_ns: float
    events: int


def run_alltoall(
    machine: MachineConfig,
    scheme: str,
    *,
    items_per_pair: int = 4,
    buffer_items: int = 64,
    item_bytes: int = 8,
    costs: Optional[CostModel] = None,
    seed: int = 0,
) -> AllToAllResult:
    """Run a personalized all-to-all through the given scheme.

    Parameters
    ----------
    items_per_pair:
        Items every worker sends to every other worker (small by
        design: the short-stream / flush-dominated regime).
    """
    rt = RuntimeSystem(machine, costs, seed=seed)
    W = machine.total_workers
    qd = QDCounter()
    received = np.zeros(W, dtype=np.int64)

    def deliver(ctx, wid, count, src_ids, src_counts):
        received[wid] += count
        qd.consume(count)

    tram = make_scheme(
        scheme,
        rt,
        TramConfig(buffer_items=buffer_items, item_bytes=item_bytes),
        deliver_bulk=deliver,
    )

    def driver(ctx):
        counts = np.full(W, items_per_pair, dtype=np.int64)
        counts[ctx.worker.wid] = 0  # no self-sends
        ctx.charge(int(counts.sum()) * rt.costs.gen_ns)
        qd.produce(int(counts.sum()))
        tram.insert_bulk(ctx, counts)
        tram.flush_when_done(ctx)

    for wid in range(W):
        rt.post(wid, driver)
    stats = rt.run()
    qd.require_balanced()
    expected_per_worker = items_per_pair * (W - 1)
    assert (received == expected_per_worker).all()

    s = tram.stats
    return AllToAllResult(
        scheme=tram.name,
        machine=machine,
        items_per_pair=items_per_pair,
        buffer_items=buffer_items,
        total_time_ns=stats.end_time,
        messages_sent=s.messages_sent,
        messages_flush=s.messages_flush,
        bytes_sent=s.bytes_sent,
        mean_latency_ns=s.latency.mean,
        events=stats.events_fired,
    )
