"""Observability switch and run-capturing session.

A single :class:`ObsConfig` flag gates all span/histogram work: schemes
only allocate :class:`~repro.obs.spans.StageLatency` and attach
:class:`~repro.obs.spans.MsgSpan` records when the runtime was built
with an enabled config. With no config (or ``enabled=False``) the hot
path pays exactly one ``is None`` check per message hop — the guard
bench ``benchmarks/bench_obs_overhead.py`` enforces this stays <5%.

:class:`ObsSession` is the harness-facing context manager: runtimes
constructed inside it pick up the session's config automatically and
report a full snapshot after each ``run()``, which the harness folds
into the ``--metrics-out`` JSON artifact::

    with ObsSession() as sess:
        data = run_figure_body()
    payload_runs = sess.records
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.obs.timeline import TimelineConfig

_active: Optional["ObsSession"] = None


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


class ObsSession:
    """Collects one snapshot per completed ``RuntimeSystem.run()``.

    Entering installs the session globally; runtimes created while it is
    active inherit ``config`` and call :meth:`update` after every run.
    Snapshots are keyed per runtime (a later ``run()`` on the same
    runtime replaces its earlier snapshot). Sessions nest: the inner one
    wins until it exits.
    """

    def __init__(self, config: Optional[ObsConfig] = None) -> None:
        self.config = config if config is not None else ObsConfig()
        self._snapshots: Dict[int, dict] = {}
        self._keys = itertools.count()
        self._prev: Optional["ObsSession"] = None

    def __enter__(self) -> "ObsSession":
        global _active
        self._prev = _active
        _active = self
        return self

    def __exit__(self, *exc_info: Any) -> None:
        global _active
        _active = self._prev
        self._prev = None

    def update(self, rt: Any, run_stats: Any = None) -> None:
        """Capture (or refresh) the snapshot for one runtime."""
        from repro.obs.snapshot import run_snapshot  # lazy: avoids a cycle

        key = getattr(rt, "_obs_key", None)
        if key is None:
            key = next(self._keys)
            rt._obs_key = key
        snap = run_snapshot(rt)
        if run_stats is not None:
            prev = self._snapshots.get(key)
            events = run_stats.events_fired + (
                prev.get("events_fired", 0) if prev else 0
            )
            snap["events_fired"] = events
        self._snapshots[key] = snap

    def absorb(self, records: List[dict]) -> None:
        """Append pre-built snapshots in order.

        Used by the sweep pool to merge records produced elsewhere —
        shipped back from a worker process or replayed from the result
        cache — at the correct position in this session's record list.
        """
        for rec in records:
            self._snapshots[next(self._keys)] = rec

    @property
    def records(self) -> List[dict]:
        """Captured snapshots, in runtime-creation order."""
        return [self._snapshots[k] for k in sorted(self._snapshots)]


def active_session() -> Optional[ObsSession]:
    """The innermost active :class:`ObsSession`, if any."""
    return _active
