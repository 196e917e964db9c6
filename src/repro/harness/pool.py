"""Parallel sweep executor: a supervised work-stealing pool over grid points.

PR 5 made a single simulated run fast on one core; this module makes
*sweeps* fast on all of them — and keeps them alive when workers are
not. A sweep (or figure) is enumerated into self-describing point specs
— ``fn(seed=..., **params)`` with a grid index — and :func:`map_points`
dispatches them:

* **Supervised work-stealing dispatch.** The parent assigns point
  indices to whichever worker process is idle (so skewed point costs
  never serialize the tail behind a static partition) and multiplexes
  the result channel with every worker's ``Process.sentinel`` plus the
  heartbeat messages workers emit as they pick up points. A worker that
  is SIGKILLed, segfaults, or hangs past the per-point timeout is
  detected, its in-flight point is requeued, and a replacement worker is
  forked — up to a capped number of restarts.
* **Retry with seeded backoff, then quarantine.** A point that fails
  (exception, worker death, or timeout) is retried up to
  ``PoolConfig.retries`` times with seeded exponential backoff. A point
  that exhausts its budget is — when ``quarantine`` is on — recorded as
  a ``poisoned`` outcome carrying the final traceback instead of
  killing the sweep; provenance keeps the exact conservation
  ``points == cache_hits + executed + poisoned``.
* **Deterministic merge.** Results (metric values *and* per-run
  observability snapshots) are shipped back and merged strictly by grid
  index, so the aggregated :class:`~repro.harness.sweep.SweepResult`
  and the ``repro.run-metrics`` artifact are identical to a serial run
  under every failure mode that ends in success (see
  :func:`repro.harness.artifact.canonical_metrics_bytes`).
* **Content-addressed caching.** With a cache directory configured,
  every completed point is persisted — fsync'd, then atomically
  renamed — under its :func:`~repro.harness.cache.point_key` as soon
  as it finishes. The cache is the only resume state: re-running the
  same sweep over the same directory after a budget stop, a drain or a
  parent ``kill -9`` serves every completed point from it and executes
  the rest. Poisoned points are never cached, so a re-run executes
  them again, and a sweep without a cache has nothing to resume from.
* **Graceful drain.** With ``drain_signals`` on, SIGINT/SIGTERM stop
  new dispatch, let in-flight points finish (and be cached), flush
  fleet status, and raise :class:`SweepInterrupted` — the CLI maps that
  to exit code 3.
* **Seed hygiene.** Every executor (the in-process one and each worker
  process) scrambles the ambient global RNGs (``random``,
  ``numpy.random``) before running points, with a *different* token per
  worker. A point function that leaks dependence on ambient global
  state therefore diverges between ``--parallel 1`` and ``--parallel
  8`` and trips the byte-identity tests — results must derive only
  from the point spec's seed.

Processes are forked lazily per :func:`map_points` call, so the
ambient :class:`~repro.runconfig.RunContext` entered by the caller (its
faults, flow and observability) is inherited by the workers; fork is
also what lets arbitrary in-process callables (closures, partials) run
in workers without pickling. With one worker (``--parallel 1``), or on
platforms without ``fork``, the same supervisor runs the points
in-process: retries, backoff, quarantine, drain and fleet status
behave as above, while per-point timeouts and worker restarts do not
apply.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import random
import signal
import threading
import time
import traceback
from collections import deque
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from repro.errors import HarnessError
from repro.harness.cache import ResultCache, point_key
from repro.harness.fleet import channel_trips_of
from repro.runconfig import PoolConfig, RunConfig, RunContext, active

#: Scramble bases for the ambient-RNG guard (arbitrary, fixed).
_GUARD_SEED = 0x5EED_CA5E

#: Exit code a worker uses after reporting a terminal failure.
_WORKER_DIED_EXIT = 70

#: How long the parent waits for workers to exit after their sentinel.
_JOIN_GRACE_S = 5.0


class SweepInterrupted(HarnessError):
    """A sweep stopped early — point budget exhausted or drain signal.

    Completed points were already persisted to the cache, so re-invoking
    the same sweep with the same cache directory resumes where it
    stopped.
    """

    def __init__(
        self, executed: int, remaining: int, reason: str = "budget"
    ) -> None:
        what = (
            "drained after a termination signal"
            if reason == "signal"
            else "interrupted after exhausting its point budget"
        )
        super().__init__(
            f"sweep {what}: {executed} executed point(s), "
            f"{remaining} point(s) remain — re-run with the same cache "
            f"directory to resume"
        )
        self.executed = executed
        self.remaining = remaining
        self.reason = reason


@dataclass(frozen=True)
class PointSpec:
    """One self-describing grid point of a sweep."""

    index: int
    params: Mapping[str, Any]
    seed: int
    #: Content-address of the point (None when caching is off).
    key: Optional[str] = None


@dataclass
class PointOutcome:
    """The merged result of one point, in grid-index order."""

    spec: PointSpec
    value: Any
    #: Per-run observability snapshots produced by this point.
    records: List[dict] = field(default_factory=list)
    cache_hit: bool = False
    #: Executor id: 0 = the parent (in-process), 1..N = pool workers.
    worker: int = 0
    wall_s: float = 0.0
    #: ``"ok"`` or ``"poisoned"`` (failed every attempt, quarantined).
    status: str = "ok"
    #: Final traceback for poisoned points (None otherwise).
    error: Optional[str] = None
    #: Failed attempts that preceded this resolution.
    retries: int = 0
    #: Where the result came from: ``exec`` or ``cache``.
    source: str = "exec"


class PoolContext:
    """Pool state of one sweep/figure invocation: cache and provenance.

    Held by the invocation's :class:`~repro.runconfig.RunContext` (its
    ``pool`` attribute), built from ``RunConfig.pool``.
    """

    def __init__(self, config: PoolConfig) -> None:
        self.config = config
        self.cache: Optional[ResultCache] = (
            ResultCache(config.cache_dir) if config.cache_dir is not None else None
        )
        #: Per-point provenance dicts, in completion-merge order.
        self.provenance: List[dict] = []
        self.executed = 0
        self.cache_hits = 0
        #: Points quarantined after exhausting their retry budget.
        self.poisoned = 0
        #: Executed points that needed at least one retry to succeed.
        self.retried_ok = 0
        #: Total failed attempts across all points.
        self.retry_attempts = 0
        #: Worker processes respawned after a crash, kill, or hang.
        self.worker_restarts = 0

    # ------------------------------------------------------------------
    def budget_remaining(self) -> Optional[int]:
        if self.config.max_executions is None:
            return None
        return max(0, self.config.max_executions - self.executed)

    def record(self, tag: str, outcome: PointOutcome) -> None:
        self.provenance.append(
            {
                "index": outcome.spec.index,
                "tag": tag,
                "params": dict(outcome.spec.params),
                "seed": outcome.spec.seed,
                "key": outcome.spec.key,
                "cache_hit": outcome.cache_hit,
                "worker": outcome.worker,
                "wall_s": outcome.wall_s,
                "status": outcome.status,
                "retries": outcome.retries,
                "error": outcome.error,
                "source": outcome.source,
            }
        )
        self.retry_attempts += outcome.retries
        if outcome.status == "poisoned":
            self.poisoned += 1
        elif outcome.cache_hit:
            self.cache_hits += 1
        else:
            self.executed += 1
            if outcome.retries:
                self.retried_ok += 1

    def provenance_payload(self) -> Optional[dict]:
        """The artifact's provenance block (None when nothing ran)."""
        if not self.provenance:
            return None
        from repro.harness.metrics import pool_summary

        return {
            "parallel": self.config.parallel,
            "cache_dir": (
                str(self.config.cache_dir)
                if self.config.cache_dir is not None
                else None
            ),
            "points": list(self.provenance),
            "summary": pool_summary(
                self.provenance, restarts=self.worker_restarts
            ),
        }


# ----------------------------------------------------------------------
# Point execution
# ----------------------------------------------------------------------
def _scramble_ambient_rng(token: int) -> None:
    """Deterministically perturb the global RNGs, per executor.

    Point results must be functions of the point spec alone. The
    in-process executor and each worker scramble to *different* states,
    so any point function secretly reading ambient global randomness
    produces diverging sweeps and fails the parallel-vs-serial identity
    tests instead of silently passing.
    """
    random.seed(_GUARD_SEED ^ token)
    try:
        import numpy as np

        np.random.seed((_GUARD_SEED ^ token) % (2**32))
    except ImportError:  # pragma: no cover
        pass


def _fn_tag(fn: Callable[..., Any]) -> Optional[str]:
    """A stable cache tag for ``fn``, or None when there isn't one."""
    module = getattr(fn, "__module__", None)
    qualname = getattr(fn, "__qualname__", None)
    if not module or not qualname:
        return None
    if "<lambda>" in qualname or "<locals>" in qualname:
        return None
    return f"{module}.{qualname}"


def _backoff_s(config: PoolConfig, spec: PointSpec, attempt: int) -> float:
    """Seeded exponential backoff before retry number ``attempt``.

    Deterministic in (point seed, grid index, attempt) so two runs of
    the same degraded sweep pace their retries identically.
    """
    rng = random.Random((spec.seed << 20) ^ (spec.index << 4) ^ attempt)
    base = config.backoff_base_s * (2.0 ** (attempt - 1))
    return min(config.backoff_max_s, base) * (0.5 + rng.random())


def _execute_point(
    fn: Callable[..., Any], spec: PointSpec, collect_obs: bool
):
    """Run one point, capturing its obs records and wall time.

    With ``collect_obs`` the point runs in a private root
    :class:`~repro.runconfig.RunContext` (the active config with obs
    on), so the records it returns are exactly its own runs' snapshots,
    whether it runs in-process or in a worker. Nothing reaches the
    caller's collector here: :func:`map_points` absorbs every outcome's
    records once, in grid order. Without ``collect_obs`` the point runs
    under the active config and returns no records.

    Earlier points' garbage is collected first. A finished runtime is
    one large reference cycle that only the cyclic collector frees, and
    :meth:`~repro.sim.engine.Engine.run` spaces young-generation
    collections out, so without this the full collection that frees it
    could fall arbitrarily late and hold several runtimes at once.
    """
    gc.collect()
    own: Optional[RunContext] = None
    if collect_obs:
        ctx = active()
        base = ctx.config if ctx is not None else RunConfig()
        own = RunContext(base.with_obs())
    with own if own is not None else nullcontext():
        t0 = time.perf_counter()
        value = fn(seed=spec.seed, **spec.params)
        wall = time.perf_counter() - t0
    return value, own.records if own is not None else [], wall


def _worker_main(worker_id, fn, specs, collect_obs, conn, resq, stale_conns):
    """Serve assigned point indices from ``conn`` until a None sentinel.

    Messages on ``resq`` are tagged tuples:

    * ``("hb", worker_id, info)`` — announced right after a point is
      picked up; drives the parent's liveness tracking and the live
      fleet-status display.
    * ``("done", slot, worker_id, value, records, wall, err)`` — a
      completed point (``err`` carries the traceback on failure).
    * ``("died", worker_id, traceback)`` — the worker hit a failure
      outside point execution and is exiting; nothing vanishes
      silently (the parent requeues the in-flight point).

    SIGINT is ignored so a terminal Ctrl-C drains through the parent's
    supervisor instead of killing in-flight points mid-simulation.
    SIGTERM is reset to the default action: the worker is forked while
    the parent's drain handler is installed, and inheriting it would
    make the worker swallow SIGTERM and outlive a dead parent.
    """
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    # Close inherited parent-side pipe ends — the other workers' and
    # this worker's own — so that EOF detection (and orphan
    # self-termination after a parent SIGKILL) is not held open by
    # this process.
    for other in stale_conns:
        try:
            other.close()
        except OSError:  # pragma: no cover - best effort
            pass
    _scramble_ambient_rng(worker_id)
    points_done = 0
    try:
        while True:
            try:
                slot = conn.recv()
            except EOFError:
                return  # parent is gone; nothing left to serve
            if slot is None:
                return
            spec = specs[slot]
            resq.put((
                "hb",
                worker_id,
                {"slot": slot, "params": dict(spec.params),
                 "points_done": points_done},
            ))
            try:
                value, records, wall = _execute_point(fn, spec, collect_obs)
            except BaseException:
                resq.put(
                    ("done", slot, worker_id, None, [], 0.0,
                     traceback.format_exc())
                )
            else:
                points_done += 1
                resq.put(("done", slot, worker_id, value, records, wall, None))
    except BaseException:
        # Terminal failure outside point execution: ship the traceback
        # before dying so the parent can surface it in the outcome
        # instead of seeing a bare sentinel.
        try:
            resq.put(("died", worker_id, traceback.format_exc()))
        except Exception:  # pragma: no cover - result channel broken
            # Deliberately broad: this is the dying worker's last word
            # and nothing here may stop the exit below. A lost notice
            # hides nothing — the parent sees the sentinel fire with
            # exit code _WORKER_DIED_EXIT and requeues the point.
            pass
        os._exit(_WORKER_DIED_EXIT)


class _WorkerHandle:
    """Parent-side state for one live worker process."""

    __slots__ = ("wid", "proc", "conn", "slot", "dispatched_at", "dying")

    def __init__(self, wid, proc, conn) -> None:
        self.wid = wid
        self.proc = proc
        self.conn = conn
        #: Grid slot currently assigned, or None when idle.
        self.slot: Optional[int] = None
        self.dispatched_at = 0.0
        #: Set when a "died" message preceded the sentinel.
        self.dying = False


class _Supervisor:
    """Fault-tolerant dispatch of grid slots, in worker processes or
    in-process.

    With ``nworkers > 1`` the supervision loop multiplexes three event
    sources with :func:`multiprocessing.connection.wait`:

    * the shared result queue (completions, heartbeats, death notices),
    * every worker's ``Process.sentinel`` (crash/kill detection),
    * a wall-clock timeout derived from pending retry backoffs and
      per-point deadlines (hang detection).

    With one worker it spawns nothing and runs each slot itself
    (:meth:`_run_inprocess`, executor id 0). Per-point timeouts and
    worker restarts do not apply there: a running point cannot be
    preempted in-process, and a drain signal takes effect between
    points.

    Failures — a point exception, a dead worker, a hung worker — all
    funnel into :meth:`_fail_attempt`, which retries with seeded
    exponential backoff until the budget is spent and then either
    quarantines the point (``quarantine``) or aborts the sweep.
    """

    def __init__(
        self,
        fn: Callable[..., Any],
        specs: Sequence[PointSpec],
        todo: Sequence[int],
        nworkers: int,
        collect_obs: bool,
        ctx: PoolContext,
        on_done: Callable[[int, PointOutcome], None],
        fleet: Optional[Any],
        drain_state: Dict[str, bool],
    ) -> None:
        self.fn = fn
        self.specs = specs
        self.todo = list(todo)
        self.nworkers = nworkers
        self.collect_obs = collect_obs
        self.config = ctx.config
        self.ctx = ctx
        self.on_done = on_done
        self.fleet = fleet
        self.drain_state = drain_state

        self.workers: Dict[int, _WorkerHandle] = {}
        self.next_wid = 1
        self.ready = deque(self.todo)
        #: (due monotonic time, slot) pairs waiting out a backoff.
        self.backoffs: List[tuple] = []
        self.attempts: Dict[int, int] = {}
        self.assignee: Dict[int, int] = {}
        self.resolved: set = set()
        self.restarts = 0
        self.max_restarts = (
            self.config.max_restarts
            if self.config.max_restarts is not None
            else 2 * nworkers + 2
        )
        self.failure: Optional[str] = None
        self.draining = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def run(self) -> int:
        """Resolve every slot; return how many a drain left unresolved."""
        if self.nworkers == 1:
            self._run_inprocess()
        else:
            self.mp = multiprocessing.get_context("fork")
            self.resq = self.mp.SimpleQueue()
            for _ in range(self.nworkers):
                self._spawn()
            try:
                self._loop()
            finally:
                self._shutdown()
        if self.failure is not None:
            raise HarnessError(
                f"sweep point failed in worker:\n{self.failure}"
            )
        return len(self.todo) - len(self.resolved)

    def _run_inprocess(self) -> None:
        """Run slots in this process, one at a time.

        A slot waiting out its retry backoff runs before any fresh slot,
        so points execute in grid order.
        """
        if self.todo:
            _scramble_ambient_rng(0)
        while len(self.resolved) < len(self.todo) and self.failure is None:
            if self.drain_state.get("requested"):
                self._begin_drain()
                return
            if self.backoffs:
                due, slot = self.backoffs.pop()
                time.sleep(max(0.0, due - time.monotonic()))
            else:
                slot = self.ready.popleft()
            self._announce(0, slot)
            try:
                value, records, wall = _execute_point(
                    self.fn, self.specs[slot], self.collect_obs
                )
            except Exception:
                # A failed attempt like a worker's traceback: retried,
                # then quarantined or raised as a HarnessError carrying
                # it. KeyboardInterrupt and SystemExit propagate.
                self._fail_attempt(slot, 0, traceback.format_exc())
            else:
                self._resolve_ok(slot, 0, value, records, wall)

    def _spawn(self) -> Optional[_WorkerHandle]:
        wid = self.next_wid
        self.next_wid += 1
        parent_conn, child_conn = self.mp.Pipe()
        stale = [h.conn for h in self.workers.values()] + [parent_conn]
        proc = self.mp.Process(
            target=_worker_main,
            args=(wid, self.fn, self.specs, self.collect_obs, child_conn,
                  self.resq, stale),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        handle = _WorkerHandle(wid, proc, parent_conn)
        self.workers[wid] = handle
        return handle

    def _loop(self) -> None:
        from multiprocessing.connection import wait as conn_wait

        while len(self.resolved) < len(self.todo) and self.failure is None:
            if self.drain_state.get("requested") and not self.draining:
                self._begin_drain()
            if self.draining and not any(
                h.slot is not None for h in self.workers.values()
            ):
                break
            self._requeue_due_backoffs()
            self._dispatch()
            if self.failure is not None:
                break
            if len(self.resolved) >= len(self.todo):
                break
            waitables = [self.resq._reader]
            waitables.extend(h.proc.sentinel for h in self.workers.values())
            try:
                conn_wait(waitables, self._wakeup_timeout())
            except OSError:  # pragma: no cover - fd race on worker exit
                pass
            self._drain_resq()
            self._reap_dead()
            self._kill_hung()

    def _begin_drain(self) -> None:
        """Stop dispatching; in-flight points run to completion."""
        self.draining = True
        self.ready.clear()
        self.backoffs.clear()

    def _shutdown(self) -> None:
        deadline = time.monotonic() + _JOIN_GRACE_S
        for handle in self.workers.values():
            if handle.proc.is_alive():
                try:
                    handle.conn.send(None)
                except (OSError, ValueError):
                    pass
        for handle in self.workers.values():
            timeout = max(0.0, deadline - time.monotonic())
            handle.proc.join(timeout)
            if handle.proc.is_alive():
                handle.proc.terminate()
                handle.proc.join()
            try:
                handle.conn.close()
            except OSError:  # pragma: no cover
                pass

    # ------------------------------------------------------------------
    # Dispatch and timing
    # ------------------------------------------------------------------
    def _dispatch(self) -> None:
        for handle in self.workers.values():
            if not self.ready:
                return
            if handle.slot is not None or handle.dying:
                continue
            if not handle.proc.is_alive():
                continue
            slot = self.ready.popleft()
            try:
                handle.conn.send(slot)
            except (OSError, ValueError):
                # Worker raced us to death; its sentinel will be reaped.
                self.ready.appendleft(slot)
                continue
            handle.slot = slot
            handle.dispatched_at = time.monotonic()
            self.assignee[slot] = handle.wid
            self._announce(handle.wid, slot)

    def _announce(self, wid: int, slot: int) -> None:
        """Tell the fleet display that executor ``wid`` took ``slot``."""
        if self.fleet is not None:
            self.fleet.on_heartbeat(
                wid, {"slot": slot, "params": dict(self.specs[slot].params)}
            )

    def _wakeup_timeout(self) -> Optional[float]:
        now = time.monotonic()
        candidates: List[float] = []
        if self.backoffs:
            candidates.append(min(due for due, _ in self.backoffs) - now)
        if self.config.point_timeout_s is not None:
            for handle in self.workers.values():
                if handle.slot is not None:
                    candidates.append(
                        handle.dispatched_at
                        + self.config.point_timeout_s
                        - now
                    )
        if not candidates:
            return None
        return max(0.01, min(candidates))

    def _requeue_due_backoffs(self) -> None:
        if not self.backoffs:
            return
        now = time.monotonic()
        due = [slot for t, slot in self.backoffs if t <= now]
        if due:
            self.backoffs = [
                (t, slot) for t, slot in self.backoffs if t > now
            ]
            self.ready.extend(due)

    # ------------------------------------------------------------------
    # Event intake
    # ------------------------------------------------------------------
    def _drain_resq(self) -> None:
        while not self.resq.empty():
            msg = self.resq.get()
            kind = msg[0]
            if kind == "hb":
                _, wid, info = msg
                handle = self.workers.get(wid)
                if handle is not None and handle.slot == info.get("slot"):
                    if self.fleet is not None:
                        self.fleet.on_heartbeat(wid, info)
                continue
            if kind == "died":
                _, wid, tb = msg
                handle = self.workers.get(wid)
                if handle is not None:
                    handle.dying = True
                    if handle.slot is not None:
                        slot = handle.slot
                        handle.slot = None
                        self.assignee.pop(slot, None)
                        self._fail_attempt(slot, wid, tb)
                continue
            _, slot, wid, value, records, wall, err = msg
            handle = self.workers.get(wid)
            if (
                slot in self.resolved
                or handle is None
                or handle.slot != slot
            ):
                continue  # stale result from a worker we already wrote off
            handle.slot = None
            self.assignee.pop(slot, None)
            if err is not None:
                self._fail_attempt(slot, wid, err)
                continue
            self._resolve_ok(slot, wid, value, records, wall)

    def _reap_dead(self) -> None:
        for wid in list(self.workers):
            handle = self.workers[wid]
            if handle.proc.is_alive():
                continue
            del self.workers[wid]
            try:
                handle.conn.close()
            except OSError:  # pragma: no cover
                pass
            slot = handle.slot
            if slot is None and handle.dying:
                self._maybe_respawn()
                continue
            if slot is None:
                # Idle worker vanished (e.g. external kill): replace it
                # if there is still work to serve.
                self._note_restart(
                    f"worker {wid} died while idle "
                    f"(exit {handle.proc.exitcode})"
                )
                continue
            self.assignee.pop(slot, None)
            self._fail_attempt(
                slot,
                wid,
                f"worker {wid} died mid-point "
                f"(exit code {handle.proc.exitcode})",
            )
            self._note_restart(f"worker {wid} died")

    def _kill_hung(self) -> None:
        timeout = self.config.point_timeout_s
        if timeout is None:
            return
        now = time.monotonic()
        for wid in list(self.workers):
            handle = self.workers[wid]
            if handle.slot is None:
                continue
            if now - handle.dispatched_at <= timeout:
                continue
            slot = handle.slot
            handle.slot = None
            self.assignee.pop(slot, None)
            handle.proc.kill()
            handle.proc.join()
            del self.workers[wid]
            try:
                handle.conn.close()
            except OSError:  # pragma: no cover
                pass
            self._fail_attempt(
                slot,
                wid,
                f"point timed out after {timeout:g}s wall-clock "
                f"(worker {wid} killed)",
            )
            self._note_restart(f"worker {wid} hung")

    def _note_restart(self, why: str) -> None:
        if self.failure is not None:
            return
        unresolved = len(self.todo) - len(self.resolved)
        inflight = sum(
            1 for h in self.workers.values() if h.slot is not None
        )
        if unresolved - inflight <= 0 and not self.ready:
            return  # remaining work is already being served
        self.restarts += 1
        self.ctx.worker_restarts += 1
        if self.restarts > self.max_restarts:
            self.failure = (
                f"gave up after {self.restarts - 1} worker restart(s) "
                f"(cap {self.max_restarts}); last cause: {why}"
            )
            return
        if len(self.workers) < self.nworkers and not self.draining:
            self._spawn()
        if self.fleet is not None:
            self.fleet.on_restart(why)

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def _resolve_ok(self, slot, wid, value, records, wall) -> None:
        self.resolved.add(slot)
        outcome = PointOutcome(
            spec=self.specs[slot],
            value=value,
            records=records,
            worker=wid,
            wall_s=wall,
            retries=self.attempts.get(slot, 0),
        )
        if self.fleet is not None:
            self.fleet.on_point_done(
                wid, wall, channel_trips=channel_trips_of(records)
            )
        self.on_done(slot, outcome)

    def _fail_attempt(self, slot: int, wid: int, err: str) -> None:
        if slot in self.resolved:
            return
        attempt = self.attempts.get(slot, 0) + 1
        self.attempts[slot] = attempt
        if not self.draining and attempt <= self.config.retries:
            delay = _backoff_s(self.config, self.specs[slot], attempt)
            self.backoffs.append((time.monotonic() + delay, slot))
            if self.fleet is not None:
                self.fleet.on_retry(slot)
            return
        if self.draining and attempt <= self.config.retries:
            return  # drained before the retry budget ran out: unresolved
        if self.config.quarantine:
            self.resolved.add(slot)
            outcome = PointOutcome(
                spec=self.specs[slot],
                value=None,
                records=[],
                worker=wid,
                status="poisoned",
                error=err,
                retries=attempt - 1,
            )
            if self.fleet is not None:
                self.fleet.on_poisoned(wid)
            self.on_done(slot, outcome)
            return
        if self.failure is None:
            self.failure = err


def _fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


# ----------------------------------------------------------------------
# Drain-signal plumbing
# ----------------------------------------------------------------------
@contextmanager
def _drain_handler(enabled: bool):
    """Install SIGINT/SIGTERM handlers that request a graceful drain.

    Yields the shared state dict the supervisor polls. Handlers are only
    installed from the main thread; elsewhere the state simply never
    triggers.
    """
    state: Dict[str, bool] = {"requested": False}
    if not enabled or threading.current_thread() is not threading.main_thread():
        yield state
        return

    def _request(signum, frame):  # pragma: no cover - exercised via CLI
        state["requested"] = True

    previous = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[signum] = signal.signal(signum, _request)
        except (ValueError, OSError):  # pragma: no cover
            pass
    try:
        yield state
    finally:
        for signum, old in previous.items():
            try:
                signal.signal(signum, old)
            except (ValueError, OSError):  # pragma: no cover
                pass


# ----------------------------------------------------------------------
# The executor front door
# ----------------------------------------------------------------------
def map_points(
    fn: Callable[..., Any],
    grid: Sequence[Mapping[str, Any]],
    *,
    tag: Optional[str] = None,
    seeds: Sequence[int] = (0,),
) -> List[PointOutcome]:
    """Evaluate ``fn(seed=s, **params)`` for every (params, seed) point.

    Points are enumerated in grid-major order (all seeds of a cell are
    adjacent) and the returned outcomes are in that exact order no
    matter how execution was scheduled. Executes as the active
    :class:`~repro.runconfig.RunContext` says (in-process, cache off
    when none is active).

    When the context's pool carries a cache, hits are replayed (value +
    obs records) without executing, and completed points are persisted
    as they finish — which is what makes interrupted sweeps resumable.
    """
    run_ctx = active() or RunContext()
    pool = run_ctx.pool
    cache = pool.cache
    resolved_tag = tag or _fn_tag(fn)
    if cache is not None and resolved_tag is None:
        raise HarnessError(
            "result caching needs a stable point tag: pass tag=... when "
            "the metric fn is a lambda, a closure or a partial"
        )
    if resolved_tag is None:
        resolved_tag = repr(fn)

    # Observability records are captured per point whenever the caller
    # is collecting them (obs on) or the cache needs them to make
    # entries replayable.
    collector = run_ctx if run_ctx.config.obs is not None else None
    collect_obs = collector is not None or cache is not None
    key_input = run_ctx.config.key_payload() if cache is not None else None

    specs: List[PointSpec] = []
    for params in grid:
        for seed in seeds:
            key = None
            if cache is not None:
                key = point_key(
                    tag=resolved_tag,
                    params=params,
                    seed=seed,
                    costs=params.get("costs"),
                    run=key_input,
                )
            specs.append(
                PointSpec(
                    index=len(specs), params=dict(params), seed=seed, key=key
                )
            )

    outcomes: List[Optional[PointOutcome]] = [None] * len(specs)

    # Resolve cache hits up front; only misses are dispatched.
    todo: List[int] = []
    for spec in specs:
        entry = None
        if cache is not None and pool.config.cache_read and spec.key:
            entry = cache.get(spec.key)
        if entry is not None:
            outcomes[spec.index] = PointOutcome(
                spec=spec,
                value=entry.get("value"),
                records=list(entry.get("records") or ()),
                cache_hit=True,
                source="cache",
            )
        else:
            todo.append(spec.index)

    budget = pool.budget_remaining()
    deferred = 0
    if budget is not None and len(todo) > budget:
        deferred = len(todo) - budget
        todo = todo[:budget]

    def finish(slot: int, outcome: PointOutcome) -> None:
        if (
            cache is not None
            and pool.config.cache_write
            and outcome.spec.key
            and outcome.status == "ok"
        ):
            cache.put(
                outcome.spec.key,
                {
                    "tag": resolved_tag,
                    "params": dict(outcome.spec.params),
                    "seed": outcome.spec.seed,
                    "value": outcome.value,
                    "records": outcome.records,
                    "meta": {"wall_s": outcome.wall_s, "worker": outcome.worker},
                },
            )
        outcomes[slot] = outcome

    # Execute, then merge in grid order: provenance entries and obs
    # records land strictly by grid index regardless of schedule and
    # cache state, so artifacts never depend on either. Points that
    # completed before a drain or a failure are merged too.
    nworkers = min(max(1, pool.config.parallel), max(1, len(todo)))
    if not _fork_available():
        nworkers = 1
    from repro.harness.fleet import make_fleet_status

    hits_upfront = len(specs) - len(todo) - deferred
    fleet = make_fleet_status(pool.config, len(specs), hits_upfront, nworkers)
    done: List[PointOutcome] = []
    try:
        with _drain_handler(pool.config.drain_signals) as drain_state:
            drained = _Supervisor(
                fn, specs, todo, nworkers, collect_obs, pool, finish,
                fleet, drain_state,
            ).run()
    finally:
        if fleet is not None:
            fleet.finish()
        for outcome in outcomes:
            if outcome is None:
                continue
            pool.record(resolved_tag, outcome)
            if collector is not None:
                collector.absorb(outcome.records)
            done.append(outcome)

    if drained or deferred:
        raise SweepInterrupted(
            executed=pool.executed,
            remaining=drained + deferred,
            reason="signal" if drained else "budget",
        )
    return done


# ----------------------------------------------------------------------
# App-backed sweep points (the `repro sweep` CLI's metric functions)
# ----------------------------------------------------------------------
#: Benchmark apps the generic sweep CLI can drive. Values: (runner
#: import path, takes a scheme argument).
SWEEP_APPS = {
    "histogram": ("repro.apps", "run_histogram", True),
    "indexgather": ("repro.apps", "run_indexgather", True),
    "alltoall": ("repro.apps", "run_alltoall", True),
    "phold": ("repro.apps", "run_phold", True),
    "pingack": ("repro.apps", "run_pingack", False),
}


def run_app_point(app: str, metric: str, seed: int = 0, **params: Any) -> float:
    """One CLI sweep point: run ``app`` and read ``metric`` off its result.

    Machine axes ``nodes``/``ppn``/``wpp`` (defaults 2/2/4, the
    harness's scaled Delta node) and a ``scheme`` axis are recognized;
    every other parameter is passed to the app runner unchanged.
    """
    import importlib

    try:
        mod_name, fn_name, takes_scheme = SWEEP_APPS[app]
    except KeyError:
        raise HarnessError(
            f"unknown sweep app {app!r}; known: {', '.join(sorted(SWEEP_APPS))}"
        ) from None
    runner = getattr(importlib.import_module(mod_name), fn_name)

    from repro.machine import MachineConfig

    kwargs = dict(params)
    machine = MachineConfig(
        nodes=int(kwargs.pop("nodes", 2)),
        processes_per_node=int(kwargs.pop("ppn", 2)),
        workers_per_process=int(kwargs.pop("wpp", 4)),
    )
    scheme = kwargs.pop("scheme", "WPs")
    args = (machine, scheme) if takes_scheme else (machine,)
    result = runner(*args, seed=seed, **kwargs)
    try:
        value = getattr(result, metric)
    except AttributeError:
        raise HarnessError(
            f"app {app!r} result has no metric {metric!r}"
        ) from None
    return float(value)
