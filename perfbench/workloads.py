"""The benchmark's workloads: what each point runs and how its output is checked.

A workload is a fixed list of points, one per aggregation scheme. A
point calls one of the apps' public ``run_*`` functions on the
sequential simulator and yields three things:

* ``items`` -- application items the simulated machine delivered
  (histogram updates, index-gather round trips, PHOLD events executed);
* ``outputs`` -- the simulated results a simulator-speed change must
  leave identical, compared against ``reference.json``;
* ``problems`` -- invariant violations (empty when the point is sound).

Importing this module imports :mod:`repro`; the caller puts the
build it measures (the checkout's ``src`` or ``pinned/``) on
``sys.path`` first. Both builds import this module, so it uses only
``repro`` API that the pinned copy also has.
"""

from __future__ import annotations

import gc
import time
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from repro.apps import run_histogram, run_indexgather, run_phold
from repro.faults import FaultPlan, FaultSession
from repro.flow import FlowConfig, FlowSession, conservation_ledger
from repro.machine import MachineConfig
from repro.runtime.system import RuntimeSystem

#: The paper's four schemes, fixed here so the benchmark does not grow
#: when the scheme registry does.
SCHEMES = ("WW", "WPs", "WsP", "PP")

#: Scaled SMP node used by the harness figures: 2 processes x 4 workers.
PPN, WPP = 2, 4

FAULTS = "drop=0.01,dup=0.005"
FLOW = "ct_msgs=8,ct_bytes=65536,overload=100000,clear=20000"


class RuntimeCapture:
    """Records every :class:`RuntimeSystem` that runs while installed.

    The apps build their runtime internally and return only a result
    record; the checks need the runtime itself (scheme stats, the
    conservation ledger, reliability and flow counters). Wrapping
    ``RuntimeSystem.run`` costs one Python call per point.
    """

    def __init__(self) -> None:
        self.runtimes: List[RuntimeSystem] = []
        self._orig = None

    def __enter__(self) -> "RuntimeCapture":
        orig = self._orig = RuntimeSystem.run
        runtimes = self.runtimes

        def run(rt, **kwargs):
            runtimes.append(rt)
            return orig(rt, **kwargs)

        RuntimeSystem.run = run
        return self

    def __exit__(self, *exc_info) -> None:
        RuntimeSystem.run = self._orig


@dataclass
class PointResult:
    items: int
    outputs: Dict[str, object]
    problems: List[str] = field(default_factory=list)
    #: Exact per-layer work counts read from the result and the runtime.
    counts: Dict[str, int] = field(default_factory=dict)


def _ledger_problems(rt: RuntimeSystem, expected_produced: int) -> List[str]:
    """Every produced item delivered: nothing shed, lost, parked or left buffered."""
    led = conservation_ledger(rt)
    problems = []
    if led["balanced"] is not True:
        problems.append(f"conservation ledger not balanced: {led}")
    if led["produced"] != expected_produced:
        problems.append(
            f"produced {led['produced']} items, expected {expected_produced}"
        )
    if led["delivered"] != led["produced"]:
        problems.append(
            f"delivered {led['delivered']} of {led['produced']} produced items"
        )
    return problems


def _histo_call(point: dict, seed: int):
    return run_histogram(
        MachineConfig(point["nodes"], PPN, WPP),
        point["scheme"],
        updates_per_pe=point["z"],
        buffer_items=point["g"],
        batch=point["batch"],
        seed=seed,
    )


def _histo_check(point: dict, r, rt: RuntimeSystem) -> PointResult:
    out = {
        "total_time_ns": r.total_time_ns,
        "mean_latency_ns": r.mean_latency_ns,
        "messages_sent": r.messages_sent,
        "messages_flush": r.messages_flush,
        "bytes_sent": r.bytes_sent,
        "buffer_bytes_allocated": r.buffer_bytes_allocated,
        "items_bypassed_local": r.items_bypassed_local,
    }
    res = PointResult(r.updates_total, out)
    res.problems += _ledger_problems(rt, r.updates_total)
    return res


PHOLD_MACHINE = MachineConfig(2, 1, 8)
PHOLD_INIT_PER_LP = 4


def _phold_call(point: dict, seed: int):
    return run_phold(
        PHOLD_MACHINE,
        point["scheme"],
        lps_per_worker=point["lps"],
        init_events_per_lp=PHOLD_INIT_PER_LP,
        quota_per_worker=point["quota"],
        buffer_items=point["g"],
        seed=seed,
    )


def _phold_check(point: dict, r, rt: RuntimeSystem) -> PointResult:
    out = {
        "events_executed": r.events_executed,
        "events_rejected": r.events_rejected,
        "total_time_ns": r.total_time_ns,
        "mean_latency_ns": r.mean_latency_ns,
        "messages_sent": r.messages_sent,
    }
    res = PointResult(r.events_executed, out)
    # Every successor travels through the scheme, so the executed events
    # are the initial population plus every delivered successor.
    (scheme,) = rt.schemes
    successors = scheme.stats.items_inserted
    res.problems += _ledger_problems(rt, successors)
    workers = PHOLD_MACHINE.total_workers
    initial = workers * point["lps"] * PHOLD_INIT_PER_LP
    if r.events_executed != initial + successors:
        res.problems.append(
            f"executed {r.events_executed} events, expected {initial} initial "
            f"+ {successors} successors"
        )
    if successors > workers * point["quota"]:
        res.problems.append(f"{successors} successors exceed the spawn quota")
    if not 0 <= r.events_rejected <= r.events_executed:
        res.problems.append(
            f"rejected {r.events_rejected} of {r.events_executed} executed events"
        )
    return res


def _ig_sessions() -> list:
    return [FaultSession(FaultPlan.parse(FAULTS)), FlowSession(FlowConfig.parse(FLOW))]


def _ig_call(point: dict, seed: int):
    return run_indexgather(
        MachineConfig(point["nodes"], PPN, WPP),
        point["scheme"],
        requests_per_pe=point["z"],
        buffer_items=point["g"],
        batch=point["batch"],
        seed=seed,
    )


def _ig_check(point: dict, r, rt: RuntimeSystem) -> PointResult:
    round_trips = r.requests_per_pe * r.machine.total_workers
    out = {
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
    }
    res = PointResult(round_trips, out)
    # requests plus one response each
    res.problems += _ledger_problems(rt, 2 * round_trips)
    return res


@dataclass(frozen=True)
class Workload:
    name: str
    call: Callable[[dict, int], object]
    check: Callable[[dict, object, RuntimeSystem], PointResult]
    #: Point parameters shared by every scheme: "full" is measured,
    #: "toy" is the warm-up point and the self-tests' size.
    sizes: Dict[str, dict]
    #: The pinned build's items per CPU-second and set-up seconds on the
    #: reference host (the median of the tuning runs on a shared 2-vCPU
    #: Xeon VM); the timed run scales them by the checkout's measured
    #: speed relative to the pinned build.
    ref_items_per_s: float
    ref_setup_s: float
    sessions: Callable[[], list] = list

    def points(self, size: str = "full") -> List[dict]:
        return [dict(self.sizes[size], scheme=s) for s in SCHEMES]

    def warmup_point(self) -> dict:
        return dict(self.sizes["toy"], scheme=SCHEMES[0])


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            # fig 9-class bulk path: insert_bulk, buffers filling, no timers
            "histo_weak",
            _histo_call,
            _histo_check,
            {
                "full": {"nodes": 16, "z": 8000, "g": 64, "batch": 1000},
                "toy": {"nodes": 2, "z": 400, "g": 64, "batch": 100},
            },
            ref_items_per_s=4.5e5,
            ref_setup_s=0.38,
        ),
        Workload(
            # fig 18 per-item path: prioritized insert, no bulk path or timers
            "phold_latency",
            _phold_call,
            _phold_check,
            {
                "full": {"lps": 8, "quota": 1500, "g": 32},
                "toy": {"lps": 8, "quota": 60, "g": 32},
            },
            ref_items_per_s=2.15e4,
            ref_setup_s=0.42,
        ),
        Workload(
            # fig 12-class request/response under faults and flow control
            "ig_faulty",
            _ig_call,
            _ig_check,
            {
                "full": {"nodes": 8, "z": 4000, "g": 64, "batch": 500},
                "toy": {"nodes": 2, "z": 200, "g": 64, "batch": 100},
            },
            ref_items_per_s=9.6e4,
            ref_setup_s=0.46,
            sessions=_ig_sessions,
        ),
    )
}


def point_label(point: dict) -> str:
    """Stable text naming a point's parameters, used to key the reference."""
    return ",".join(f"{k}={point[k]}" for k in sorted(point))


def compare(outputs: Dict[str, object], expected: Dict[str, object]) -> List[str]:
    """Exact comparison of simulated outputs; floats must match bit for bit."""
    problems = []
    for key in sorted(set(outputs) | set(expected)):
        got, want = outputs.get(key, "<missing>"), expected.get(key, "<missing>")
        if got != want:
            problems.append(f"{key}: got {got!r}, reference {want!r}")
    return problems


def run_point(
    workload: Workload, point: dict, seed: int, profiler=None
) -> Tuple[PointResult, float]:
    """Run one point; return its checked result and the CPU seconds of the run.

    Only the ``run_*`` call is timed (and profiled, when ``profiler`` is
    given); session set-up and the checks are not. Earlier points' cyclic
    garbage is collected first, so it is neither charged to this point
    nor left to shift the process's peak RSS from run to run.
    """
    gc.collect()
    with ExitStack() as stack:
        for session in workload.sessions():
            stack.enter_context(session)
        cap = stack.enter_context(RuntimeCapture())
        if profiler is not None:
            profiler.enable()
        try:
            t0 = time.process_time()
            r = workload.call(point, seed)
            cpu = time.process_time() - t0
        finally:
            if profiler is not None:
                profiler.disable()
    (rt,) = cap.runtimes
    res = workload.check(point, r, rt)
    res.counts = {
        "sim.events": r.events,
        "runtime.worker.tasks": sum(w.stats.tasks_executed for w in rt.workers),
        "runtime.reliability.retransmits": (
            rt.reliable.stats.retransmits if rt.reliable is not None else 0
        ),
        "flow.parks": rt.flow.stats.messages_parked if rt.flow is not None else 0,
    }
    return res, cpu
