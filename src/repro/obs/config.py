"""The observability switch.

A single :class:`ObsConfig` flag gates all span/histogram work: schemes
only allocate :class:`~repro.obs.spans.StageLatency` and attach
:class:`~repro.obs.spans.MsgSpan` records when the runtime was built
with an enabled config. With no config (or ``enabled=False``) the hot
path pays exactly one ``is None`` check per message hop — the guard
bench ``benchmarks/bench_obs_overhead.py`` enforces this stays <5%.

The harness sets it as the ``obs`` field of a
:class:`~repro.runconfig.RunConfig`: runtimes built inside the entered
:class:`~repro.runconfig.RunContext` pick the config up and report a
full snapshot after each ``run()``, which the harness folds into the
``--metrics-out`` JSON artifact::

    with RunContext(RunConfig(obs=ObsConfig())) as ctx:
        data = run_figure_body()
    payload_runs = ctx.records
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.obs.timeline import TimelineConfig


@dataclass(frozen=True)
class ObsConfig:
    """The flags gating all instrumentation.

    ``enabled`` gates span/histogram attribution; ``timeline``
    additionally attaches a
    :class:`~repro.obs.timeline.TimelineRecorder` flight recorder to
    every runtime built under this config (``None``, the default, keeps
    the engine on its sampler-free hot loop).
    """

    enabled: bool = True
    timeline: Optional[TimelineConfig] = None
