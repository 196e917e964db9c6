#!/usr/bin/env python3
"""Host-time benchmark of the sequential simulator on three aggregation workloads.

Run from the repository root::

    python3 perfbench/run.py --workload histo_weak --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload ig_faulty --seed 0 --trace 1
    python3 perfbench/run.py --workload phold_latency --seed 0 --record

``--trace 0`` measures the end-to-end metrics (``items_per_s``,
``setup_s``, ``peak_rss_mb``); ``--trace 1`` is a separate run that
reports per-layer self time, exact work counts and the tracing
overhead. ``--record`` writes the simulated outputs of the warm-up
point and one pass into ``reference.json`` for that seed. Every
point's outputs are checked; the last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. See
``README.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

HERE = Path(__file__).resolve().parent
#: Where each build's ``repro`` package lives: the checkout's simulator,
#: and the frozen copy the timed run measures it against.
BUILDS = {"checkout": HERE.parent / "src", "pinned": HERE / "pinned"}


def import_repro(build: str = "checkout") -> None:
    """Import ``repro`` from ``build``; exit non-zero if it is not there."""
    src = BUILDS[build]
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no simulator source at {src}")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != src / "repro":
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {src}")


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="write this seed's simulated outputs to reference.json")
    # Internal: the timed run starts these as child processes.
    ap.add_argument("--build", choices=sorted(BUILDS), default="checkout",
                    help=argparse.SUPPRESS)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--serve", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    import_repro(args.build)
    import bench
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    if args.setup_probe:
        bench.setup_probe(workload, args.seed)
        return 0
    if args.serve:
        bench.serve(workload, args.seed)
        return 0
    if args.record:
        return bench.record(workload, args.seed)

    reference = bench.load_reference()
    if str(args.seed) in reference.get(workload.name, {}):
        print(f"{workload.name} seed {args.seed}: checking invariants and the "
              f"recorded reference")
    else:
        print(f"{workload.name} seed {args.seed}: no recorded reference; checking "
              f"invariants and pass-to-pass identity")
    if args.trace:
        result = bench.measure_traced(workload, args.seed, reference=reference)
    else:
        result = bench.measure_timed(workload, args.seed, args.seconds,
                                     reference=reference)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
