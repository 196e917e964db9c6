"""Whole-run snapshot: one JSON-ready dict per completed run.

This is the per-run record the harness embeds in ``--metrics-out``
artifacts: machine shape, component aggregates, per-scheme stats and
stage breakdowns, utilization with the bottleneck verdict, and the full
metrics-registry dump.

Imports from :mod:`repro.harness` happen lazily inside the function —
``repro.obs`` sits below the harness in the layering (the runtime
imports it), so a module-level import would be a cycle.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.obs.registry import registry_from_runtime


def _machine_dict(machine: Any) -> dict:
    return {
        "nodes": machine.nodes,
        "processes_per_node": machine.processes_per_node,
        "workers_per_process": machine.workers_per_process,
        "total_workers": machine.total_workers,
        "smp": machine.smp,
    }


def _crash_armed(rt: Any) -> bool:
    """Whether the crash fabric is on for this runtime.

    Crash-only keys are merged into snapshot blocks only when armed, so
    artifacts from crash-free runs stay byte-identical to pre-fabric
    ones.
    """
    return getattr(rt, "dead_procs", None) is not None


def _scheme_dict(index: int, scheme: Any, crash_armed: bool = False) -> dict:
    lat = scheme.stats.latency
    stages = getattr(scheme, "stages", None)
    stats = scheme.stats.summary()
    if crash_armed:
        stats.update(scheme.stats.crash_summary())
    entry: Dict[str, Any] = {
        "index": index,
        "name": scheme.name,
        "stats": stats,
        "latency": {
            "count": lat.count,
            "total_ns": lat.total,
            "mean_ns": lat.mean,
            "min_ns": lat.min if lat.count else 0.0,
            "max_ns": lat.max,
        },
        "stages": stages.to_dict() if stages is not None else None,
    }
    if stages is not None:
        entry["stage_latency_total_ns"] = stages.total_ns()
    return entry


def _utilization_dict(rt: Any) -> Optional[dict]:
    from repro.harness.metrics import utilization  # lazy: layering

    if rt.engine.now <= 0:
        return None
    report = utilization(rt)
    out = report.to_dict()
    out["bottleneck"] = report.bottleneck()
    out["bottleneck_detail"] = report.bottleneck_detail()
    return out


def _faults_dict(rt: Any) -> Optional[dict]:
    faults = getattr(rt, "faults", None)
    if faults is None:
        return None
    out = faults.stats.to_dict()
    if _crash_armed(rt):
        out.update(faults.stats.crash_to_dict())
    return out


def _reliability_dict(rt: Any) -> Optional[dict]:
    reliable = getattr(rt, "reliable", None)
    if reliable is None:
        return None
    out = reliable.stats.to_dict()
    out["pending_messages"] = reliable.pending_count()
    if _crash_armed(rt):
        out.update(reliable.stats.crash_to_dict())
    return out


def _flow_dict(rt: Any) -> Optional[dict]:
    flow = getattr(rt, "flow", None)
    if flow is None:
        return None
    return flow.to_dict()


def _timeline_dict(rt: Any) -> Optional[dict]:
    timeline = getattr(rt, "timeline", None)
    if timeline is None:
        return None
    return timeline.to_dict()


def run_snapshot(rt: Any) -> dict:
    """Summarize a finished :class:`~repro.runtime.system.RuntimeSystem`."""
    transport = rt.transport.stats
    return {
        "machine": _machine_dict(rt.machine),
        "total_time_ns": rt.engine.now,
        "transport": {
            route.value: {
                "messages": transport.messages[route],
                "bytes": transport.bytes[route],
            }
            for route in transport.messages
        },
        "schemes": [
            _scheme_dict(i, s, _crash_armed(rt))
            for i, s in enumerate(getattr(rt, "schemes", ()))
        ],
        "utilization": _utilization_dict(rt),
        # Optional blocks are always present, explicitly null when the
        # subsystem is off — consumers can tell "disabled" apart from
        # "produced by an older schema" (repro.run-metrics/2 requires
        # these keys; see repro.harness.artifact).
        "faults": _faults_dict(rt),
        "reliability": _reliability_dict(rt),
        "flow": _flow_dict(rt),
        "timeline": _timeline_dict(rt),
        "metrics": registry_from_runtime(rt).to_json(),
    }
