#!/usr/bin/env python
"""Chaos drill for the supervised sweep pool (CI gate).

Runs the same app-backed histogram sweep twice:

1. **chaotic** — 3 workers, with three injected failure modes: one
   point SIGKILLs its worker mid-execution (once), one point hangs far
   past the per-point timeout (once), and ~10% of points fail
   transiently on their first attempt;
2. **clean** — serial, fault-free reference.

and asserts the self-healing invariants from the supervisor design:

* the chaotic sweep *completes* (no fault is fatal);
* its point accounting reconciles:
  ``n_points == cache_hits + executed + poisoned`` with **zero**
  poisoned points (every injected fault is recoverable within the
  retry budget);
* the supervisor actually worked (``restarts >= 2``: the SIGKILL and
  the hang-kill; ``retries >= 3``: one charged attempt per fault);
* the chaotic artifact is **canonically byte-identical** to the clean
  serial artifact.

Faults are keyed off marker files in a scratch directory named by
``$REPRO_CHAOS_DIR`` — never off point params — so both runs compute
the exact same grid and the byte comparison is meaningful.

Usage::

    PYTHONPATH=src python scripts/chaos_sweep.py
"""

from __future__ import annotations

import json
import os
import signal
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.harness.artifact import (  # noqa: E402
    canonical_metrics_bytes,
    validate_metrics_payload,
)
from repro.harness.pool import run_app_point  # noqa: E402
from repro.harness.sweep import run_sweep  # noqa: E402
from repro.runconfig import PoolConfig, RunConfig  # noqa: E402

CHAOS_DIR_ENV = "REPRO_CHAOS_DIR"

AXES = {"nodes": [1, 2], "scheme": ["WW", "WPs"]}
SEEDS = (0, 1)  # 4 cells x 2 seeds = 8 points
FIXED = dict(updates_per_pe=1500, buffer_items=64, batch=500)
TAG = "ci:chaos-sweep:" + json.dumps(FIXED, sort_keys=True)


def _marker_once(name: str) -> bool:
    """True exactly once per marker name (False with chaos disabled)."""
    chaos_dir = os.environ.get(CHAOS_DIR_ENV)
    if not chaos_dir:
        return False
    marker = Path(chaos_dir) / name
    if marker.exists():
        return False
    marker.touch()
    return True


def chaos_point(seed: int, *, nodes: int, scheme: str) -> float:
    """One histogram point with marker-gated fault injection."""
    if nodes == 2 and scheme == "WW" and _marker_once("kamikaze"):
        os.kill(os.getpid(), signal.SIGKILL)
    if nodes == 1 and scheme == "WPs" and seed == 1 and _marker_once("hang"):
        time.sleep(300)
    if nodes == 1 and scheme == "WW" and seed == 0 and _marker_once("flaky"):
        raise ValueError("injected transient failure")
    return run_app_point(
        "histogram", "total_time_ns", seed=seed, nodes=nodes, scheme=scheme,
        **FIXED,
    )


def main() -> int:
    workdir = Path(tempfile.mkdtemp(prefix="chaos-sweep-"))
    chaos_dir = workdir / "faults"
    chaos_dir.mkdir()
    chaos_path = workdir / "chaos.json"
    clean_path = workdir / "clean.json"
    n = 8

    print("chaotic run: 3 workers, SIGKILL + hang + transient faults...",
          file=sys.stderr)
    os.environ[CHAOS_DIR_ENV] = str(chaos_dir)
    t0 = time.perf_counter()
    chaotic = run_sweep(
        chaos_point, AXES, seeds=SEEDS, tag=TAG, metrics_path=chaos_path,
        config=RunConfig(
            pool=PoolConfig(parallel=3, retries=3, point_timeout_s=10.0)
        ),
    )
    chaotic_wall = time.perf_counter() - t0
    fired = sorted(p.name for p in chaos_dir.iterdir())
    if fired != ["flaky", "hang", "kamikaze"]:
        raise SystemExit(f"FATAL: not every fault fired: {fired}")

    print("clean run: serial, fault-free reference...", file=sys.stderr)
    del os.environ[CHAOS_DIR_ENV]
    clean = run_sweep(
        chaos_point, AXES, seeds=SEEDS, tag=TAG, metrics_path=clean_path,
    )

    if [c.values for c in chaotic.cells] != [c.values for c in clean.cells]:
        raise SystemExit("FATAL: chaotic sweep values diverged from clean")

    a = json.loads(chaos_path.read_text())
    b = json.loads(clean_path.read_text())
    problems = validate_metrics_payload(a)
    if problems:
        raise SystemExit(f"FATAL: chaotic artifact invalid: {problems}")
    if canonical_metrics_bytes(a) != canonical_metrics_bytes(b):
        raise SystemExit(
            "FATAL: chaotic artifact not canonically byte-identical "
            "to the clean serial artifact"
        )

    s = a["provenance"]["summary"]
    if s["n_points"] != n:
        raise SystemExit(f"FATAL: expected {n} points, got {s['n_points']}")
    if s["cache_hits"] + s["executed"] + s["poisoned"] != s["n_points"]:
        raise SystemExit(f"FATAL: point accounting does not reconcile: {s}")
    if s["poisoned"] != 0:
        raise SystemExit(f"FATAL: recoverable faults left poison: {s}")
    if s["restarts"] < 2:
        raise SystemExit(f"FATAL: expected >= 2 worker restarts: {s}")
    if s["retries"] < 3:
        raise SystemExit(f"FATAL: expected >= 3 charged retries: {s}")

    print(
        f"OK: chaotic sweep healed in {chaotic_wall:.1f}s — "
        f"{s['executed']} executed, {s['retries']} retry(ies), "
        f"{s['restarts']} restart(s), 0 poisoned; canonical bytes "
        "identical to clean serial",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
