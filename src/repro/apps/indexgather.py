"""Index-gather (IG) — the Bale-suite request/response latency probe.

Every worker sends ``requests_per_pe`` read requests to random PEs;
each receiving PE answers with a response item back to the requester
(paper §III-D). Because request and response travel through TramLib,
the measured round trip is (request item latency) + (responder turn-
around) + (response item latency); the paper uses this benchmark to
compare the *item latency* of the schemes (Fig 12: PP < WPs < WW) and
their total-time overheads (Fig 13).

Two scheme instances share the runtime: one carries requests, one
responses (both use the same scheme under test). Responses use idle
flushing — a responder cannot know when requesters are done.
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
class IndexGatherResult:
    """Outcome of one index-gather run."""

    scheme: str
    machine: MachineConfig
    requests_per_pe: int
    buffer_items: int
    total_time_ns: float
    #: Mean one-way request item latency (creation -> responder PE).
    request_latency_ns: float
    #: Mean one-way response item latency (creation -> requester PE).
    response_latency_ns: float
    messages_sent: int
    bytes_sent: int
    events: int
    #: Approximate percentiles of the request-leg item latency (from a
    #: deterministic reservoir sample); None when sampling is disabled.
    request_latency_p50_ns: Optional[float] = None
    request_latency_p99_ns: Optional[float] = None

    @property
    def round_trip_latency_ns(self) -> float:
        """Mean aggregation-path round trip (request + response legs)."""
        return self.request_latency_ns + self.response_latency_ns


def run_indexgather(
    machine: MachineConfig,
    scheme: str,
    *,
    requests_per_pe: int = 4096,
    buffer_items: int = 64,
    item_bytes: int = 16,
    batch: int = 256,
    latency_sample: int = 2048,
    costs: Optional[CostModel] = None,
    seed: int = 0,
) -> IndexGatherResult:
    """Run index-gather and return latency + overhead metrics.

    ``latency_sample`` sizes the deterministic reservoir used for the
    p50/p99 latency percentiles (0 disables sampling).
    """
    rt = RuntimeSystem(machine, costs, seed=seed)
    W = machine.total_workers
    qd_req = QDCounter()
    qd_resp = QDCounter()
    responses_received = np.zeros(W, dtype=np.int64)

    # Responses: created by the request handler below; delivered back to
    # the requesting PE. Responders flush on idle (they cannot know when
    # the request stream ends).
    def deliver_response(ctx, wid, count, src_ids, src_counts):
        responses_received[wid] += count
        qd_resp.consume(count)

    resp_tram = make_scheme(
        scheme,
        rt,
        TramConfig(
            buffer_items=buffer_items,
            item_bytes=item_bytes,
            idle_flush=True,
        ),
        deliver_bulk=deliver_response,
    )

    def deliver_request(ctx, wid, count, src_ids, src_counts):
        qd_req.consume(count)
        # Look up the requested values and answer every contributor.
        ctx.charge(count * rt.costs.gen_ns)
        counts = [0] * W
        for sid, n in zip(src_ids, src_counts):
            counts[sid] = n
        qd_resp.produce(count)
        resp_tram.insert_bulk(ctx, counts)

    req_tram = make_scheme(
        scheme,
        rt,
        TramConfig(
            buffer_items=buffer_items,
            item_bytes=item_bytes,
            idle_flush=False,
            latency_sample=latency_sample,
        ),
        deliver_bulk=deliver_request,
    )

    def driver(ctx, remaining: int):
        wid = ctx.worker.wid
        k = min(batch, remaining)
        rng = rt.rng.stream(f"ig/{wid}")
        counts = np.bincount(rng.integers(0, W, k), minlength=W)
        ctx.charge(k * rt.costs.gen_ns)
        qd_req.produce(k)
        req_tram.insert_bulk(ctx, counts)
        remaining -= k
        if remaining > 0:
            ctx.emit(ctx.worker.post_task, driver, remaining)
        else:
            req_tram.flush_when_done(ctx)

    for wid in range(W):
        rt.post(wid, driver, requests_per_pe)
    stats = rt.run()
    qd_req.require_balanced()
    qd_resp.require_balanced()
    assert int(responses_received.sum()) == requests_per_pe * W

    return IndexGatherResult(
        scheme=req_tram.name,
        machine=machine,
        requests_per_pe=requests_per_pe,
        buffer_items=buffer_items,
        total_time_ns=stats.end_time,
        request_latency_ns=req_tram.stats.latency.mean,
        response_latency_ns=resp_tram.stats.latency.mean,
        messages_sent=req_tram.stats.messages_sent + resp_tram.stats.messages_sent,
        bytes_sent=req_tram.stats.bytes_sent + resp_tram.stats.bytes_sent,
        events=stats.events_fired,
        request_latency_p50_ns=req_tram.stats.latency.percentile(50),
        request_latency_p99_ns=req_tram.stats.latency.percentile(99),
    )
