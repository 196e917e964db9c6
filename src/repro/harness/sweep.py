"""Generic parameter sweeps with seed replication.

The per-figure generators in :mod:`repro.harness.figures` are
hand-shaped to match the paper; this module provides the generic tool
for *new* studies: run a factory over a parameter grid, optionally
replicating each cell over seeds to get error bars (the simulator is
deterministic per seed, so seed variation plays the role of the paper's
multiple trials).

Execution goes through :mod:`repro.harness.pool`: grid points can be
dispatched to a work-stealing process pool (``parallel=N``) and/or
persisted in a content-addressed result cache (``cache_dir=...``), with
results merged deterministically by grid index so the aggregated
:class:`SweepResult` and metrics artifact do not depend on the
schedule.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import HarnessError
from repro.util.stats import mean_std
from repro.util.tables import render_table


@dataclass(frozen=True)
class SweepCell:
    """One grid point of a sweep.

    Poisoned seed-runs (points quarantined after exhausting their
    retry budget) appear as ``nan`` in :attr:`values`; the mean/std
    aggregate over the finite values only, so one quarantined seed
    degrades a cell's error bars instead of wiping out the cell.
    """

    params: Dict[str, Any]
    #: Per-seed metric values, in seed order (``nan`` = poisoned).
    values: Tuple[float, ...]
    #: Per-seed execution wall-clock (0.0 for replayed cache hits).
    wall_s: Tuple[float, ...] = ()
    #: How many of this cell's seed-runs were served from the cache.
    cache_hits: int = 0

    @property
    def finite_values(self) -> Tuple[float, ...]:
        return tuple(v for v in self.values if math.isfinite(v))

    @property
    def mean(self) -> float:
        finite = self.finite_values
        return mean_std(finite)[0] if finite else float("nan")

    @property
    def std(self) -> float:
        finite = self.finite_values
        return mean_std(finite)[1] if finite else float("nan")


@dataclass
class SweepResult:
    """All cells of a completed sweep."""

    axes: Dict[str, Sequence[Any]]
    metric: str
    cells: List[SweepCell] = field(default_factory=list)
    #: Pool execution provenance (the artifact's ``provenance`` block):
    #: per-point cache/worker/wall records plus the aggregate summary.
    #: ``None`` when nothing ran through a pool context.
    pool: Optional[Dict[str, Any]] = None

    def cell(self, **params: Any) -> SweepCell:
        """Look up one grid point by its exact parameters."""
        for c in self.cells:
            if c.params == params:
                return c
        raise KeyError(params)

    @property
    def total_cache_hits(self) -> int:
        return sum(c.cache_hits for c in self.cells)

    @property
    def total_points(self) -> int:
        return sum(len(c.values) for c in self.cells)

    def to_table(self) -> str:
        """Render the grid as a table (one row per cell)."""
        names = list(self.axes)
        headers = names + [f"{self.metric} (mean)", "std", "wall (s)", "cache"]
        rows = [
            [c.params[n] for n in names]
            + [c.mean, c.std, sum(c.wall_s), f"{c.cache_hits}/{len(c.values)}"]
            for c in self.cells
        ]
        return render_table(headers, rows)

    def pool_summary_text(self) -> Optional[str]:
        """Human-readable pool execution summary for the end-of-run
        report (hit rate, total execution wall, per-worker points), or
        ``None`` when no provenance was recorded."""
        if not self.pool:
            return None
        summary = self.pool.get("summary") or {}
        n = summary.get("n_points", 0)
        hits = summary.get("cache_hits", 0)
        executed = summary.get("executed", 0)
        wall = summary.get("exec_wall_s", 0.0)
        rate = hits / n if n else 0.0
        parts = [
            f"pool: {n} point(s), {hits} cache hit(s) ({rate:.0%}), "
            f"{executed} executed in {wall:.2f}s"
        ]
        poisoned = summary.get("poisoned", 0)
        retries = summary.get("retries", 0)
        restarts = summary.get("restarts", 0)
        if poisoned or retries or restarts:
            parts.append(
                f"  faults: {retries} retry(ies), {poisoned} poisoned, "
                f"{restarts} worker restart(s)"
            )
        workers = summary.get("workers") or {}
        if len(workers) > 1 or (workers and "0" not in workers):
            per = ", ".join(
                f"w{wid}: {st.get('points', 0)}pt/{st.get('wall_s', 0.0):.2f}s"
                for wid, st in sorted(
                    workers.items(), key=lambda kv: int(kv[0])
                )
            )
            parts.append(f"  workers: {per}")
        return "\n".join(parts)


def run_sweep(
    fn: Callable[..., float],
    axes: Dict[str, Sequence[Any]],
    *,
    seeds: Sequence[int] = (0,),
    metric: str = "value",
    metrics_path=None,
    flow=None,
    timeline=None,
    parallel: int = 1,
    cache_dir: Optional[Path] = None,
    fresh: bool = False,
    tag: Optional[str] = None,
    max_executions: Optional[int] = None,
    status: bool = False,
    status_json: Optional[Path] = None,
    retries: int = 0,
    point_timeout_s: Optional[float] = None,
    drain_signals: bool = False,
) -> SweepResult:
    """Evaluate ``fn(seed=..., **params)`` over the cartesian grid.

    Parameters
    ----------
    fn:
        Callable returning one float metric. It must accept every axis
        name as a keyword argument plus ``seed``, and its result must
        depend only on those arguments (no ambient global RNG — the
        pool scrambles global RNG state per executor to enforce this).
    axes:
        Mapping of parameter name to the values to sweep.
    seeds:
        Seeds to replicate each cell over (error bars).
    metrics_path:
        Optional path: run the grid inside an
        :class:`~repro.obs.config.ObsSession` and write the
        schema-versioned JSON artifact there (per-run snapshots with
        stage breakdowns; see :mod:`repro.harness.artifact`).
    flow:
        Optional :class:`~repro.flow.FlowConfig` (or spec string for
        :meth:`~repro.flow.FlowConfig.parse`): run every cell with
        credit-based flow control active.
    timeline:
        Optional :class:`~repro.obs.TimelineConfig`: attach the
        flight recorder to every run, embedding per-run ``timeline``
        blocks in the artifact (implies an ObsSession even without
        ``metrics_path``).
    parallel:
        Worker processes for the point executor; 1 (default) runs the
        grid serially in-process. The aggregated result is identical
        either way — only wall-clock changes.
    cache_dir:
        Content-addressed result cache directory. Previously completed
        identical points are replayed for free, newly executed points
        are persisted as they finish, so re-running an interrupted
        sweep over the same directory resumes it. Poisoned points are
        never cached; a re-run executes them again.
    fresh:
        Ignore existing cache entries (still writes fresh ones).
    tag:
        Stable cache identity for ``fn``; required with ``cache_dir``
        when ``fn`` is a lambda/closure/partial.
    max_executions:
        Execute at most this many points, then raise
        :class:`~repro.harness.pool.SweepInterrupted` (cache hits are
        free). Exists to exercise resumability.
    status:
        Render a live fleet-status line to stderr while points run.
    status_json:
        Rewrite this JSON file with live fleet status (queue depth,
        hit rate, per-worker throughput, ETA) as points complete.
    retries:
        Extra attempts per point after a failure (seeded exponential
        backoff between attempts). With retries on, a point that
        fails every attempt is quarantined as a ``poisoned`` outcome
        (``nan`` in its cell) instead of failing the sweep.
    point_timeout_s:
        Wall-clock budget per point in parallel runs; a worker stuck
        past it is killed and the attempt counts as a failure.
    drain_signals:
        Handle SIGINT/SIGTERM as a graceful drain: finish in-flight
        points (caching each), flush fleet status, then raise
        :class:`~repro.harness.pool.SweepInterrupted`.

    Examples
    --------
    >>> from repro.harness.sweep import run_sweep
    >>> res = run_sweep(lambda x, seed: float(x * x), {"x": [1, 2, 3]})
    >>> [c.mean for c in res.cells]
    [1.0, 4.0, 9.0]
    """
    if not axes:
        raise HarnessError("sweep needs at least one axis")
    if not seeds:
        raise HarnessError("sweep needs at least one seed")
    names = list(axes)
    combos = [
        dict(zip(names, combo))
        for combo in itertools.product(*(axes[n] for n in names))
    ]

    fcfg = None
    if flow is not None:
        from repro.flow import FlowConfig

        fcfg = flow if isinstance(flow, FlowConfig) else FlowConfig.parse(flow)
        if not fcfg.enabled:
            fcfg = None

    from contextlib import ExitStack

    from repro.harness.pool import PoolConfig, map_points, pool_session

    pcfg = PoolConfig(
        parallel=parallel,
        cache_dir=cache_dir,
        cache_read=not fresh,
        cache_write=True,
        max_executions=max_executions,
        status=status,
        status_json=status_json,
        retries=retries,
        point_timeout_s=point_timeout_s,
        # Quarantine only when the caller opted into fault tolerance;
        # a plain sweep still fails fast on the first point error.
        quarantine=bool(retries or point_timeout_s is not None),
        drain_signals=drain_signals,
    )

    session = None
    with ExitStack() as stack:
        if fcfg is not None:
            from repro.flow import FlowSession

            stack.enter_context(FlowSession(fcfg))
        if metrics_path is not None or timeline is not None:
            from repro.obs import ObsConfig, ObsSession

            session = stack.enter_context(
                ObsSession(ObsConfig(timeline=timeline))
            )
        ctx = stack.enter_context(pool_session(pcfg))
        outcomes = map_points(fn, combos, tag=tag, seeds=seeds)

    result = SweepResult(axes=dict(axes), metric=metric)
    result.pool = ctx.provenance_payload()
    n_seeds = len(seeds)
    for ci, params in enumerate(combos):
        chunk = outcomes[ci * n_seeds : (ci + 1) * n_seeds]
        result.cells.append(
            SweepCell(
                params=params,
                values=tuple(
                    float("nan") if o.value is None else float(o.value)
                    for o in chunk
                ),
                wall_s=tuple(o.wall_s for o in chunk),
                cache_hits=sum(1 for o in chunk if o.cache_hit),
            )
        )

    if metrics_path is None:
        return result

    from dataclasses import asdict as _asdict

    from repro.harness.artifact import build_metrics_payload, write_metrics_json

    extra = {"axes": {n: list(axes[n]) for n in names}, "seeds": list(seeds)}
    if fcfg is not None:
        extra["flow"] = _asdict(fcfg)
    if timeline is not None:
        extra["timeline"] = _asdict(timeline)
    payload = build_metrics_payload(
        target=f"sweep:{metric}",
        profile="custom",
        runs=session.records,
        sweep=result,
        extra_config=extra,
        provenance=result.pool,
    )
    write_metrics_json(metrics_path, payload)
    return result
