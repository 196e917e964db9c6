#!/usr/bin/env python
"""Supervisor and cache-write overhead benchmark.

The self-healing machinery in :mod:`repro.harness.pool` must be close
to free when nothing goes wrong: per-worker dispatch, heartbeat
tracking, wall-clock deadlines, and the fsync'd result-cache write
that makes a sweep resumable all sit on the hot path of every point.
This suite measures that tax on a 64-point grid of cheap (~few ms)
points — where fixed per-point overhead is most visible — and reports:

* ``serial_plain`` / ``serial_cached`` — points/sec serial, without
  and with the result cache (``fresh``, so every point is executed and
  written: one fsync'd, atomically renamed JSON entry per point);
* ``cache_write_tax_ms`` — added wall-clock per point from the cache
  writes;
* ``parallel_plain`` / ``parallel_supervised`` — points/sec through
  the worker pool, without and with the full supervision feature set
  (retries, per-point timeouts, quarantine);
* ``supervision_tax_ms`` — added wall-clock per point from
  supervision.

Under ``--gate`` the suite fails if either tax exceeds a fixed
per-point ceiling (absolute milliseconds, not a baseline ratio — the
tax is a constant cost, so a ratio against host-dependent point cost
would be meaningless across machines).

Usage::

    PYTHONPATH=src python benchmarks/bench_supervisor_overhead.py \
        --out BENCH_supervisor.json --gate
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path

from repro.harness.sweep import run_sweep

SCHEMA = "repro.bench-supervisor/1"

AXES = {"x": list(range(16))}
SEEDS = (0, 1, 2, 3)  # 16 cells x 4 seeds = 64 points
TAG = "bench:supervisor-overhead"
REPEATS = 3

#: Per-point overhead ceilings (milliseconds), enforced under --gate.
#: Generous enough for a loaded CI runner; an order of magnitude above
#: the measured cost on an idle workstation.
CACHE_WRITE_TAX_CEILING_MS = 25.0
SUPERVISION_TAX_CEILING_MS = 25.0


def _busy_point(seed, *, x):
    """Deterministic ~ms busy-work; cheap enough to expose dispatch tax."""
    acc = 0
    for i in range(50_000):
        acc += (i ^ x ^ seed) & 7
    return float(acc)


def _n_points() -> int:
    return len(AXES["x"]) * len(SEEDS)


def _best_wall(**kwargs) -> float:
    """Min-of-REPEATS wall time for one sweep configuration."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        run_sweep(_busy_point, AXES, seeds=SEEDS, tag=TAG, **kwargs)
        best = min(best, time.perf_counter() - t0)
    return best


def run_suite(parallel: int) -> dict:
    n = _n_points()
    results = {}

    def report(name, value, unit, detail):
        results[name] = {"value": round(value, 3), "unit": unit,
                         "detail": detail}
        print(f"  {name:22s} {value:10,.3f} {unit}", file=sys.stderr)

    serial_plain = _best_wall()
    report("serial_plain", n / serial_plain, "points/sec",
           f"{n} cheap points, serial, no cache")

    with tempfile.TemporaryDirectory(prefix="bench-supervisor") as td:
        serial_cached = _best_wall(cache_dir=Path(td), fresh=True)
    report("serial_cached", n / serial_cached, "points/sec",
           "same grid writing every point to the fsync'd result cache")
    report("cache_write_tax_ms",
           max(0.0, serial_cached - serial_plain) / n * 1000, "ms/point",
           "added wall-clock per point from cache writes")

    par_plain = _best_wall(parallel=parallel)
    report("parallel_plain", n / par_plain, "points/sec",
           f"worker pool at --parallel {parallel}, no supervision extras")

    par_supervised = _best_wall(parallel=parallel, retries=2,
                                point_timeout_s=60.0)
    report("parallel_supervised", n / par_supervised, "points/sec",
           "same pool with retries=2 and a per-point timeout armed")
    report("supervision_tax_ms",
           max(0.0, par_supervised - par_plain) / n * 1000, "ms/point",
           "added wall-clock per point from supervision")
    return results


def gate(results: dict) -> int:
    failures = []
    for name, ceiling in (
        ("cache_write_tax_ms", CACHE_WRITE_TAX_CEILING_MS),
        ("supervision_tax_ms", SUPERVISION_TAX_CEILING_MS),
    ):
        got = results[name]["value"]
        if got > ceiling:
            failures.append(
                f"{name}: {got:.3f} ms/point exceeds the "
                f"{ceiling:.0f} ms ceiling"
            )
        else:
            print(f"  {name:22s} {got:.3f} <= {ceiling:.0f} ms/point ok",
                  file=sys.stderr)
    if failures:
        print("supervisor overhead regression detected:", file=sys.stderr)
        for f_ in failures:
            print(f"  - {f_}", file=sys.stderr)
        return 1
    print("OK: supervision and cache-write taxes within ceilings",
          file=sys.stderr)
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default=None,
                    help="write BENCH_supervisor.json here")
    ap.add_argument("--gate", action="store_true",
                    help="fail if per-point overhead exceeds fixed ceilings")
    ap.add_argument("--parallel", type=int,
                    default=min(4, os.cpu_count() or 1),
                    help="pool width for the parallel benches "
                    "(default min(4, cpus))")
    args = ap.parse_args(argv)

    print(
        f"running supervisor overhead suite ({_n_points()} points, "
        f"--parallel {args.parallel}, {REPEATS} repeats)...",
        file=sys.stderr,
    )
    results = run_suite(args.parallel)
    payload = {
        "schema": SCHEMA,
        "env": {"cpus": os.cpu_count(), "parallel": args.parallel},
        "results": results,
    }
    if args.out:
        with open(args.out, "w") as f:
            json.dump(payload, f, indent=1, sort_keys=True)
            f.write("\n")
        print(f"wrote {args.out}", file=sys.stderr)
    if args.gate:
        return gate(results)
    return 0


if __name__ == "__main__":
    sys.exit(main())
