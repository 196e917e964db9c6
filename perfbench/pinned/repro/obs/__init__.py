"""repro.obs — stage-attributed observability for the simulator.

Three layers:

* :mod:`repro.obs.spans` / :mod:`repro.obs.hist` — per-message
  :class:`MsgSpan` transit records folded into per-scheme
  :class:`StageLatency` log2 histograms (where do the nanoseconds go);
* :mod:`repro.obs.registry` — :class:`MetricsRegistry`, one named/typed
  namespace over every component counter;
* :mod:`repro.obs.config` — the :class:`ObsConfig` gate and
  :class:`ObsSession`, the harness hook that snapshots each run for the
  ``--metrics-out`` JSON artifact.

Everything is off unless a runtime is built with an enabled
:class:`ObsConfig` (directly or via an active :class:`ObsSession`); the
disabled path costs one ``is None`` check per message hop.

``run_snapshot`` is exposed lazily (it reaches up into the harness
layer for utilization, which must not be imported from here at runtime
construction time).
"""

from repro.obs.config import ObsConfig, ObsSession, active_session
from repro.obs.hist import Log2Histogram
from repro.obs.registry import Metric, MetricsRegistry, registry_from_runtime
from repro.obs.spans import LATENCY_STAGES, STAGES, MsgSpan, StageLatency
from repro.obs.timeline import TIMELINE_SCHEMA, TimelineConfig, TimelineRecorder

__all__ = [
    "LATENCY_STAGES",
    "Log2Histogram",
    "Metric",
    "MetricsRegistry",
    "MsgSpan",
    "ObsConfig",
    "ObsSession",
    "STAGES",
    "StageLatency",
    "TIMELINE_SCHEMA",
    "TimelineConfig",
    "TimelineRecorder",
    "active_session",
    "registry_from_runtime",
    "run_snapshot",
]


def __getattr__(name: str):
    if name == "run_snapshot":
        from repro.obs.snapshot import run_snapshot

        return run_snapshot
    raise AttributeError(f"module 'repro.obs' has no attribute {name!r}")
