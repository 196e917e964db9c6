"""Synthetic PHOLD on the placeholder optimistic engine (Fig 18).

Classic PHOLD: a fixed population of events circulates among LPs spread
across all workers. Executing an event at virtual time ``ts`` schedules
one successor at ``ts + lookahead + Exp(mean_delay)`` on a uniformly
random LP; successors to remote LPs travel through TramLib. Each worker
executes events until its quota, then keeps absorbing (so the system
drains). The figure of merit is the number of out-of-order (rejected)
events — the rollback proxy — which grows with item latency; the paper
measures >5% fewer rejects for PP than the worker-buffered schemes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.apps.pdes.engine import LpState, OptimisticEngine
from repro.machine.costs import CostModel
from repro.machine.topology import MachineConfig
from repro.runtime.system import RuntimeSystem
from repro.tram import TramConfig, make_scheme


@dataclass(frozen=True)
class PholdResult:
    """Outcome of one PHOLD run."""

    scheme: str
    machine: MachineConfig
    lps_per_worker: int
    events_executed: int
    #: Events that arrived after their LP's virtual clock had passed
    #: them (the rollback proxy; paper Fig 18 "wasted updates").
    events_rejected: int
    total_time_ns: float
    mean_latency_ns: float
    messages_sent: int
    events: int

    @property
    def rejected_fraction(self) -> float:
        return (
            self.events_rejected / self.events_executed
            if self.events_executed
            else 0.0
        )


def run_phold(
    machine: MachineConfig,
    scheme: str,
    *,
    lps_per_worker: int = 8,
    init_events_per_lp: int = 4,
    quota_per_worker: int = 512,
    lookahead: float = 1.0,
    mean_delay: float = 5.0,
    events_per_task: int = 4,
    buffer_items: int = 32,
    item_bytes: int = 16,
    costs: Optional[CostModel] = None,
    seed: int = 0,
) -> PholdResult:
    """Run synthetic PHOLD and return reject/overhead metrics.

    Parameters
    ----------
    lps_per_worker / init_events_per_lp:
        Workload size; the circulating event population is
        ``W * lps_per_worker * init_events_per_lp``.
    quota_per_worker:
        Events each worker executes before it stops spawning successors
        (drains the system deterministically).
    lookahead / mean_delay:
        Virtual-time increment of successors: ``lookahead + Exp(mean)``.
    """
    rt = RuntimeSystem(machine, costs, seed=seed)
    W = machine.total_workers
    total_lps = W * lps_per_worker

    engines = [
        OptimisticEngine(
            lps=[LpState(lp_id=w + W * i) for i in range(lps_per_worker)]
        )
        for w in range(W)
    ]
    # events spawned by each worker (quota control)
    spawned = [0] * W
    loop_live = [False] * W

    def deliver(ctx, item) -> None:
        lp_global, virtual_ts = item.payload
        wid = ctx.worker.wid
        eng = engines[wid]
        ctx.charge(rt.costs.gen_ns)
        eng.enqueue(lp_global // W, virtual_ts)
        if not loop_live[wid]:
            loop_live[wid] = True
            ctx.emit(ctx.worker.post_task, event_loop)

    tram = make_scheme(
        scheme,
        rt,
        TramConfig(
            buffer_items=buffer_items,
            item_bytes=item_bytes,
            idle_flush=True,
        ),
        deliver_item=deliver,
    )

    def event_loop(ctx) -> None:
        wid = ctx.worker.wid
        eng = engines[wid]
        rng = rt.rng.stream(f"phold/{wid}")
        for _ in range(events_per_task):
            if not eng.has_events:
                break
            ctx.charge(4 * rt.costs.gen_ns)  # event execution cost
            _, virtual_ts, _ = eng.execute_next()
            if spawned[wid] < quota_per_worker:
                spawned[wid] += 1
                succ_ts = virtual_ts + lookahead + rng.exponential(mean_delay)
                dst_lp = int(rng.integers(0, total_lps))
                tram.insert(
                    ctx,
                    dst_lp % W,
                    payload=(dst_lp, succ_ts),
                    priority=succ_ts,
                )
        if eng.has_events:
            ctx.emit(ctx.worker.post_task, event_loop)
        else:
            loop_live[wid] = False

    def seed_task(ctx) -> None:
        wid = ctx.worker.wid
        rng = rt.rng.stream(f"phold-init/{wid}")
        eng = engines[wid]
        for i in range(lps_per_worker):
            for _ in range(init_events_per_lp):
                eng.enqueue(i, float(rng.exponential(mean_delay)))
        loop_live[wid] = True
        ctx.emit(ctx.worker.post_task, event_loop)

    for wid in range(W):
        rt.post(wid, seed_task)
    stats = rt.run()

    executed = sum(e.total_executed for e in engines)
    rejected = sum(e.total_rejected for e in engines)
    s = tram.stats
    return PholdResult(
        scheme=tram.name,
        machine=machine,
        lps_per_worker=lps_per_worker,
        events_executed=executed,
        events_rejected=rejected,
        total_time_ns=stats.end_time,
        mean_latency_ns=s.latency.mean,
        messages_sent=s.messages_sent,
        events=stats.events_fired,
    )
