"""Live fleet telemetry for the sweep pool.

The pool in :mod:`repro.harness.pool` runs hundreds of points across
worker processes; until now its progress was invisible until the final
artifact landed. This module is the parent-side aggregator for the
worker heartbeats that now share the result channel: it tracks queue
depth, cache-hit rate and per-worker throughput as points complete, and
surfaces them two ways —

* a throttled single-line status rendered to ``stderr`` (``--status``),
* a machine-readable JSON file rewritten atomically on every update
  (``--status-json``), the fleet-status surface the ROADMAP's
  ``repro serve`` front end polls.

Everything here runs on the parent's wall clock and never touches the
artifact payload, so enabling it cannot perturb the canonical-byte
identity between serial and parallel sweeps.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, TextIO

#: Schema tag stamped into every ``--status-json`` document.
#: /2 added the supervision counters (retries, poisoned, restarts) and
#: later grew an *optional* ``channel_trips`` key, present only when at
#: least one completed point reported reliability channels tripped to
#: direct traffic — trip-free sweeps keep the exact /2 shape.
STATUS_SCHEMA = "repro.fleet-status/2"


def channel_trips_of(records: Any) -> int:
    """Total reliability channel trips across a point's run snapshots.

    ``records`` is the per-point list of run-snapshot dicts the pool
    carries in :class:`~repro.harness.pool.PointOutcome.records`. A
    *trip* is a channel the reliability layer gave up on: degraded to
    direct traffic, or torn down after a peer-death confirmation (the
    latter key only exists when the crash fabric was armed).
    """
    trips = 0
    for rec in records or ():
        if not isinstance(rec, Mapping):
            continue
        rel = rec.get("reliability")
        if not isinstance(rel, Mapping):
            continue
        trips += int(rel.get("channels_degraded", 0) or 0)
        trips += int(rel.get("channels_torn_down", 0) or 0)
    return trips


class FleetStatus:
    """Aggregates pool progress and emits throttled status updates.

    Parameters
    ----------
    total:
        Total number of points in this dispatch (hits + executions).
    cache_hits:
        Points already resolved from the cache before dispatch.
    nworkers:
        Executor count (1 = in-process: the parent runs every point
        as executor 0).
    interval_s:
        Minimum wall-clock spacing between emitted updates; terminal
        and file writes share the throttle.
    stream:
        Where the status line goes (default ``sys.stderr``); ``None``
        disables line rendering.
    path:
        Status-JSON file path; ``None`` disables the file.
    """

    def __init__(
        self,
        total: int,
        *,
        cache_hits: int = 0,
        nworkers: int = 0,
        interval_s: float = 0.5,
        stream: Optional[TextIO] = None,
        path: Optional[Path] = None,
    ) -> None:
        self.total = total
        self.cache_hits = cache_hits
        self.done = cache_hits
        self.executed = 0
        #: Failed attempts that were sent back for retry.
        self.retries = 0
        #: Points quarantined after exhausting their retry budget.
        self.poisoned = 0
        #: Worker processes respawned after a crash, kill, or hang.
        self.restarts = 0
        #: Reliability channels that tripped to direct traffic (or were
        #: torn down by the crash fabric) across all completed points.
        self.channel_trips = 0
        self.nworkers = nworkers
        self.interval_s = interval_s
        self.stream = stream
        self.path = Path(path) if path is not None else None
        self.t0 = time.perf_counter()
        self._last_emit = 0.0
        self._line_open = False
        #: Per-worker progress: points completed, cumulative wall,
        #: and the point currently being executed (from heartbeats).
        self.workers: Dict[int, Dict[str, Any]] = {}

    # ------------------------------------------------------------------
    # Event intake
    # ------------------------------------------------------------------
    def _worker(self, worker_id: int) -> Dict[str, Any]:
        return self.workers.setdefault(
            worker_id, {"points": 0, "wall_s": 0.0, "current": None}
        )

    def on_heartbeat(self, worker_id: int, info: Mapping[str, Any]) -> None:
        """A worker announced the point it is starting."""
        state = self._worker(worker_id)
        state["current"] = info.get("params")
        self.maybe_emit()

    def on_point_done(
        self,
        worker_id: int,
        wall_s: float,
        *,
        cache_hit: bool = False,
        channel_trips: int = 0,
    ) -> None:
        """A point finished (executed or replayed from cache)."""
        self.done += 1
        self.channel_trips += channel_trips
        if cache_hit:
            self.cache_hits += 1
        else:
            self.executed += 1
            state = self._worker(worker_id)
            state["points"] += 1
            state["wall_s"] += wall_s
            state["current"] = None
        self.maybe_emit()

    def on_retry(self, slot: int) -> None:
        """A point attempt failed and was queued for retry."""
        self.retries += 1
        self.maybe_emit()

    def on_poisoned(self, worker_id: int) -> None:
        """A point exhausted its retry budget and was quarantined."""
        self.done += 1
        self.poisoned += 1
        state = self._worker(worker_id)
        state["current"] = None
        self.maybe_emit()

    def on_restart(self, why: str) -> None:
        """The supervisor replaced a dead or hung worker."""
        self.restarts += 1
        self.maybe_emit()

    # ------------------------------------------------------------------
    # Derived state
    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Points not yet completed."""
        return max(0, self.total - self.done)

    @property
    def hit_rate(self) -> float:
        return self.cache_hits / self.total if self.total else 0.0

    def throughput(self) -> float:
        """Executed points per wall-clock second so far."""
        elapsed = time.perf_counter() - self.t0
        return self.executed / elapsed if elapsed > 0 else 0.0

    def eta_s(self) -> Optional[float]:
        """Remaining-time estimate; None before any point completes."""
        rate = self.throughput()
        if rate <= 0:
            return None
        return self.queue_depth / rate

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def status_payload(self) -> dict:
        """The ``--status-json`` document."""
        elapsed = time.perf_counter() - self.t0
        eta = self.eta_s()
        payload = {
            "schema": STATUS_SCHEMA,
            "points_total": self.total,
            "points_done": self.done,
            "queue_depth": self.queue_depth,
            "cache_hits": self.cache_hits,
            "hit_rate": round(self.hit_rate, 6),
            "executed": self.executed,
            "retries": self.retries,
            "poisoned": self.poisoned,
            "restarts": self.restarts,
            "elapsed_s": round(elapsed, 3),
            "throughput_pts_per_s": round(self.throughput(), 3),
            "eta_s": round(eta, 3) if eta is not None else None,
            "workers": {
                str(wid): {
                    "points": st["points"],
                    "wall_s": round(st["wall_s"], 3),
                    "current": st["current"],
                }
                for wid, st in sorted(self.workers.items())
            },
        }
        if self.channel_trips:
            payload["channel_trips"] = self.channel_trips
        return payload

    def render_line(self) -> str:
        """One-line human status, e.g.
        ``[sweep 12/64] queue 52 | hits 8 (12%) | 3.1 pt/s | eta 17s``."""
        parts = [
            f"[sweep {self.done}/{self.total}]",
            f"queue {self.queue_depth}",
            f"hits {self.cache_hits} ({self.hit_rate:.0%})",
        ]
        rate = self.throughput()
        if rate > 0:
            parts.append(f"{rate:.1f} pt/s")
        if self.retries or self.poisoned or self.restarts:
            parts.append(
                f"retries {self.retries} | poisoned {self.poisoned} "
                f"| restarts {self.restarts}"
            )
        if self.channel_trips:
            parts.append(f"trips {self.channel_trips}")
        eta = self.eta_s()
        if eta is not None:
            parts.append(f"eta {eta:.0f}s")
        if self.nworkers > 1:
            busy = sum(
                1 for st in self.workers.values() if st["current"] is not None
            )
            parts.append(f"workers {busy}/{self.nworkers}")
        return " | ".join(parts)

    def _write_json(self) -> None:
        if self.path is None:
            return
        # The serve front end polls this file across crashes, so the
        # write must be durable before it becomes visible: create the
        # directory if a caller points into one that does not exist yet,
        # and fsync the temp file before the atomic replace so a power
        # cut can never leave a visible-but-empty status document.
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(f".tmp.{os.getpid()}")
        with tmp.open("w", encoding="utf-8") as fh:
            fh.write(json.dumps(self.status_payload(), indent=2) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.path)

    def maybe_emit(self, force: bool = False) -> None:
        """Emit the status line / JSON file, at most once per interval."""
        now = time.perf_counter()
        if not force and now - self._last_emit < self.interval_s:
            return
        self._last_emit = now
        if self.stream is not None:
            self.stream.write("\r\x1b[2K" + self.render_line())
            self.stream.flush()
            self._line_open = True
        self._write_json()

    def finish(self) -> None:
        """Force a final emission and close the status line."""
        self.maybe_emit(force=True)
        if self.stream is not None and self._line_open:
            self.stream.write("\n")
            self.stream.flush()
            self._line_open = False


def make_fleet_status(
    config: Any, total: int, cache_hits: int, nworkers: int
) -> Optional[FleetStatus]:
    """Build a :class:`FleetStatus` from a pool config, or ``None``
    when neither ``status`` nor ``status_json`` is requested."""
    status = getattr(config, "status", False)
    status_json = getattr(config, "status_json", None)
    if not status and status_json is None:
        return None
    return FleetStatus(
        total,
        cache_hits=cache_hits,
        nworkers=nworkers,
        interval_s=getattr(config, "status_interval_s", 0.5),
        stream=sys.stderr if status else None,
        path=status_json,
    )
