"""One frozen run configuration and the one ambient stack that carries it.

A :class:`RunConfig` holds everything that decides how a run executes
apart from the code, the experiment's parameters and the seed: the
fault plan and the reliable-delivery layer that recovers from it,
credit-based flow control, observability, and how the sweep pool
executes grid points. Entering a :class:`RunContext` installs one
ambiently: every :class:`~repro.runtime.system.RuntimeSystem` built
inside picks up its faults, reliability, flow and observability, so
figure bodies never thread them through::

    cfg = RunConfig(faults="drop=0.01", obs=ObsConfig())
    with RunContext(cfg) as ctx:
        run_figure_body()   # every runtime built here is faulty + observed
    payload_runs = ctx.records

Contexts nest; the inner one wins until it exits. :class:`FaultSession`
and :class:`FlowSession` are contexts that enter the *active* config
with one field replaced: they inherit every other field and keep
reporting to the enclosing context's collectors.

This module imports nothing from the packages it configures at import
time, so the runtime layer can depend on it without pulling in the
harness.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.plan import FaultPlan
    from repro.flow.config import FlowConfig
    from repro.obs.config import ObsConfig
    from repro.runtime.reliability import ReliabilityConfig

#: Marks "not given": a faulty config then gets the default
#: :class:`~repro.runtime.reliability.ReliabilityConfig`.
_DEFAULT: Any = object()


def _default_reliability():
    from repro.runtime.reliability import ReliabilityConfig

    return ReliabilityConfig()


@dataclass(frozen=True)
class PoolConfig:
    """How the sweep pool executes points (see :mod:`repro.harness.pool`)."""

    #: Number of worker processes; <=1 runs points in-process.
    parallel: int = 1
    #: Cache directory; ``None`` disables persistence entirely.
    cache_dir: Optional[Path] = None
    #: Read previously cached points (turned off by ``--fresh``).
    cache_read: bool = True
    #: Persist newly executed points.
    cache_write: bool = True
    #: Execute at most this many points (cache hits are free), then
    #: raise :class:`~repro.harness.pool.SweepInterrupted` — the
    #: resumability test hook.
    max_executions: Optional[int] = None
    #: Render a throttled fleet-status line to stderr while running.
    status: bool = False
    #: Rewrite this JSON file (atomically) with live fleet status —
    #: queue depth, hit rate, per-worker throughput, ETA.
    status_json: Optional[Path] = None
    #: Minimum wall-clock seconds between status updates.
    status_interval_s: float = 0.5
    # ------------------------------------------------------- supervision
    #: Extra attempts per point after the first failure.
    retries: int = 0
    #: Wall-clock budget per point; a worker stuck past it is killed
    #: and the point counts as a failed attempt. Parallel runs only —
    #: the in-process supervisor cannot preempt a running point.
    point_timeout_s: Optional[float] = None
    #: First-retry backoff; doubles per attempt (seeded +/-50% jitter).
    backoff_base_s: float = 0.05
    #: Cap on a single backoff delay.
    backoff_max_s: float = 2.0
    #: Worker respawn budget for the whole dispatch; ``None`` means
    #: ``2 * nworkers + 2``.
    max_restarts: Optional[int] = None
    #: Quarantine points that exhaust their retry budget as
    #: ``poisoned`` outcomes instead of failing the sweep.
    quarantine: bool = False
    #: Handle SIGINT/SIGTERM as a graceful drain: finish in-flight
    #: points (caching each), flush fleet status, raise
    #: SweepInterrupted.
    drain_signals: bool = False


@dataclass(frozen=True)
class RunConfig:
    """Everything besides code, parameters and seed that shapes a run.

    ``faults`` and ``flow`` also accept spec strings (parsed with
    :meth:`~repro.faults.FaultPlan.parse` /
    :meth:`~repro.flow.FlowConfig.parse`). A no-op fault plan and a
    disabled flow or reliability config are stored as ``None``. Leaving
    ``reliability`` out gives a faulty config the default
    :class:`~repro.runtime.reliability.ReliabilityConfig`, so faulty
    runs still deliver exactly once; pass ``reliability=None`` to study
    raw lossy behaviour. :meth:`replace` keeps the resolved value.
    """

    faults: Optional["FaultPlan"] = None
    reliability: Optional["ReliabilityConfig"] = _DEFAULT
    flow: Optional["FlowConfig"] = None
    obs: Optional["ObsConfig"] = None
    pool: PoolConfig = field(default_factory=PoolConfig)

    def __post_init__(self) -> None:
        faults, flow, rel = self.faults, self.flow, self.reliability
        if isinstance(faults, str):
            from repro.faults.plan import FaultPlan

            faults = FaultPlan.parse(faults)
        if faults is not None and faults.is_noop():
            faults = None
        if isinstance(flow, str):
            from repro.flow.config import FlowConfig

            flow = FlowConfig.parse(flow)
        if flow is not None and not flow.enabled:
            flow = None
        if rel is _DEFAULT:
            rel = _default_reliability() if faults is not None else None
        if rel is not None and not rel.enabled:
            rel = None
        object.__setattr__(self, "faults", faults)
        object.__setattr__(self, "flow", flow)
        object.__setattr__(self, "reliability", rel)

    def replace(self, **changes: Any) -> "RunConfig":
        """A copy with the given fields replaced (re-normalised)."""
        return dataclasses.replace(self, **changes)

    def with_obs(self) -> "RunConfig":
        """This config with observability on (unchanged when already set)."""
        if self.obs is not None:
            return self
        from repro.obs.config import ObsConfig

        return self.replace(obs=ObsConfig())

    @property
    def timeline(self) -> Any:
        """The flight-recorder config when the recorder is on, else None."""
        tl = self.obs.timeline if self.obs is not None else None
        return tl if tl is not None and tl.enabled else None

    def key_payload(self) -> Dict[str, Any]:
        """The fields that determine simulated results: the cache-key input.

        The pool and the obs ``enabled`` flag only decide how points
        execute and what is recorded, so they stay out. The timeline is
        folded in only when on: timeline-bearing records must not replay
        into (or from) plain runs, and a plain run's key does not depend
        on recorder settings it never uses.
        """
        payload = {
            "faults": self.faults,
            "reliability": self.reliability,
            "flow": self.flow,
        }
        if self.timeline is not None:
            payload["timeline"] = self.timeline
        return payload

    def artifact_config(self) -> Dict[str, Any]:
        """The metrics artifact's ``config`` block for this run config."""
        block: Dict[str, Any] = {}
        if self.faults is not None:
            block["faults"] = dataclasses.asdict(self.faults)
        if self.flow is not None:
            block["flow"] = dataclasses.asdict(self.flow)
        if self.obs is not None and self.obs.timeline is not None:
            block["timeline"] = dataclasses.asdict(self.obs.timeline)
        return block


_active: Optional["RunContext"] = None


class RunContext:
    """One entry of the ambient stack: a config plus its collectors.

    The collectors belong to one harness invocation: the observability
    snapshots (one per completed ``RuntimeSystem.run()`` while
    ``config.obs`` is set) and the sweep pool's result cache and
    provenance (:attr:`pool`). Entering installs the context; runtimes
    created while it is active inherit its config.
    """

    def __init__(self, config: Optional[RunConfig] = None) -> None:
        self.config = config if config is not None else RunConfig()
        #: The context whose collectors this one reports to.
        self._root = self
        self._snapshots: Dict[int, dict] = {}
        self._keys = itertools.count()
        self._pool: Any = None
        self._prev: Optional[RunContext] = None

    def __enter__(self) -> "RunContext":
        global _active
        self._prev = _active
        _active = self
        return self

    def __exit__(self, *exc_info: Any) -> None:
        global _active
        _active = self._prev
        self._prev = None

    @property
    def pool(self) -> Any:
        """The :class:`~repro.harness.pool.PoolContext` of this invocation."""
        root = self._root
        if root._pool is None:
            from repro.harness.pool import PoolContext

            root._pool = PoolContext(root.config.pool)
        return root._pool

    def update(self, rt: Any, run_stats: Any = None) -> None:
        """Capture (or refresh) the snapshot for one runtime.

        Snapshots are keyed per runtime: a later ``run()`` on the same
        runtime replaces its earlier snapshot.
        """
        from repro.obs.snapshot import run_snapshot  # lazy: avoids a cycle

        root = self._root
        key = getattr(rt, "_obs_key", None)
        if key is None:
            key = next(root._keys)
            rt._obs_key = key
        snap = run_snapshot(rt)
        if run_stats is not None:
            prev = root._snapshots.get(key)
            events = run_stats.events_fired + (
                prev.get("events_fired", 0) if prev else 0
            )
            snap["events_fired"] = events
        root._snapshots[key] = snap

    def absorb(self, records: List[dict]) -> None:
        """Append pre-built snapshots in order.

        Used by the sweep pool to merge records produced elsewhere —
        shipped back from a worker process or replayed from the result
        cache — at the correct position in this context's record list.
        """
        root = self._root
        for rec in records:
            root._snapshots[next(root._keys)] = rec

    @property
    def records(self) -> List[dict]:
        """Captured snapshots, in runtime-creation order."""
        snaps = self._root._snapshots
        return [snaps[k] for k in sorted(snaps)]


class _Override(RunContext):
    """Enters the active config with some fields replaced.

    The base config is read on entry, not at construction, so overrides
    built together and entered through one ``ExitStack`` compose. The
    context reports to the collectors of the one it was entered in.
    """

    def __init__(self, **changes: Any) -> None:
        super().__init__()
        self._changes = changes

    def __enter__(self) -> "RunContext":
        outer = _active
        if outer is None:
            self.config = RunConfig(**self._changes)
        else:
            self.config = outer.config.replace(**self._changes)
            self._root = outer._root
        return super().__enter__()


class FaultSession(_Override):
    """Enters the active config with ``faults`` (and ``reliability``) set.

    ``reliability`` defaults to
    :class:`~repro.runtime.reliability.ReliabilityConfig` (on); pass
    ``None`` to study raw lossy behaviour.
    """

    def __init__(self, plan: "FaultPlan", reliability: Any = _DEFAULT) -> None:
        if reliability is _DEFAULT:
            reliability = _default_reliability()
        super().__init__(faults=plan, reliability=reliability)


class FlowSession(_Override):
    """Enters the active config with ``flow`` set."""

    def __init__(self, flow: "FlowConfig") -> None:
        super().__init__(flow=flow)


def active() -> Optional[RunContext]:
    """The innermost active :class:`RunContext`, if any."""
    return _active
