"""Command-line entry point: ``python -m repro.harness`` / ``tramlib-repro``.

Examples::

    tramlib-repro list
    tramlib-repro fig9
    tramlib-repro fig12 --profile quick
    tramlib-repro all --profile quick --out results/
    tramlib-repro fig9 --parallel 8
    tramlib-repro sweep --app histogram \\
        --axes "nodes=1,2,4;scheme=WW,WPs,PP" --seeds 0,1 \\
        --parallel 8 --metrics-out sweep.json
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import List, Optional

from repro.harness.figures import FIGURES, run_figure


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tramlib-repro",
        description=(
            "Regenerate the figures of 'Shared Memory-Aware "
            "Latency-Sensitive Message Aggregation for Fine-Grained "
            "Communication' (SC 2024) on the simulated SMP cluster."
        ),
    )
    parser.add_argument(
        "target",
        help=(
            "figure id (e.g. fig9), 'all', 'sweep', 'report', 'validate', "
            "'validate-metrics', 'timeline-plot', or 'list'"
        ),
    )
    parser.add_argument(
        "path",
        nargs="?",
        type=Path,
        default=None,
        help="artifact to read (validate-metrics / timeline-plot targets)",
    )
    parser.add_argument(
        "--profile",
        choices=["paper", "quick"],
        default="paper",
        help="sweep size: 'paper' (default) or 'quick'",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="directory to also write per-figure .txt reports into",
    )
    parser.add_argument(
        "--metrics-out",
        type=Path,
        default=None,
        metavar="PATH",
        help=(
            "write a machine-readable JSON artifact (schema "
            "repro.run-metrics/2) with per-run stage breakdowns, "
            "utilization and the bottleneck verdict; for 'all', PATH is "
            "a directory with one <fig>.json per figure"
        ),
    )
    parser.add_argument(
        "--faults",
        default=None,
        metavar="SPEC",
        help=(
            "run figures under seeded fault injection + reliable "
            "delivery; SPEC is comma-separated key=value pairs, e.g. "
            "'drop=0.01,dup=0.005,corrupt=0.001,reorder=0.02'"
        ),
    )
    parser.add_argument(
        "--flow",
        default=None,
        metavar="SPEC",
        help=(
            "run figures under credit-based flow control (bounded "
            "comm-thread/NIC occupancy, backpressure, overload "
            "escalation); SPEC is comma-separated key=value pairs, e.g. "
            "'ct_msgs=64,ct_bytes=1048576,overload=200000,shed=2000000'"
        ),
    )
    telemetry = parser.add_argument_group("time-series telemetry")
    telemetry.add_argument(
        "--timeline",
        action="store_true",
        help=(
            "attach the flight recorder to every simulated run: "
            "periodic samples of queue depth, backlog, credit-gate "
            "occupancy, overload state, retransmit/shed counts and "
            "per-scheme buffered items, embedded as a 'timeline' block "
            "in the metrics artifact (off by default; deterministic — "
            "sampled on the simulated clock, not wall time)"
        ),
    )
    telemetry.add_argument(
        "--timeline-cadence",
        type=float,
        default=50_000.0,
        metavar="NS",
        help="simulated-time sampling cadence in ns (default: 50000)",
    )
    telemetry.add_argument(
        "--timeline-capacity",
        type=int,
        default=512,
        metavar="N",
        help=(
            "flight-recorder ring capacity in samples; on overflow the "
            "recorder decimates (keeps every other sample and doubles "
            "its stride) so memory stays bounded (default: 512)"
        ),
    )
    telemetry.add_argument(
        "--status",
        action="store_true",
        help="render a live fleet-status line (queue depth, hit rate, "
        "throughput, ETA) to stderr while sweep points run",
    )
    telemetry.add_argument(
        "--status-json",
        type=Path,
        default=None,
        metavar="PATH",
        help=(
            "rewrite PATH atomically with live fleet status (schema "
            "repro.fleet-status/2) as sweep points complete — the "
            "machine-readable surface for external monitors"
        ),
    )
    parallel = parser.add_argument_group("parallel execution and caching")
    parallel.add_argument(
        "--parallel",
        type=int,
        default=1,
        metavar="N",
        help=(
            "dispatch sweep/figure grid points to N worker processes "
            "(work-stealing pool; results are merged deterministically "
            "by grid index, so output is identical to a serial run)"
        ),
    )
    parallel.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help=(
            "content-addressed result cache directory; completed points "
            "are persisted there and identical re-runs are free, so "
            "re-running an interrupted sweep over the same directory "
            "resumes it (default for 'sweep': .repro-cache/sweep)"
        ),
    )
    parallel.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the result cache entirely (no reads, no writes)",
    )
    parallel.add_argument(
        "--fresh",
        action="store_true",
        help="ignore existing cache entries (still writes fresh ones)",
    )
    fault = parser.add_argument_group("fault tolerance (sweep execution)")
    fault.add_argument(
        "--retries",
        type=int,
        default=0,
        metavar="N",
        help=(
            "retry a failed point up to N times with seeded exponential "
            "backoff; a point that fails every attempt is quarantined "
            "as 'poisoned' (null in the artifact) instead of failing "
            "the sweep (default: 0 — fail fast)"
        ),
    )
    fault.add_argument(
        "--point-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "wall-clock budget per point in parallel runs; a worker "
            "stuck past it is killed and the attempt counts as a "
            "failure (retried/quarantined per --retries)"
        ),
    )
    sweep = parser.add_argument_group("generic sweeps ('sweep' target)")
    sweep.add_argument(
        "--app",
        default="histogram",
        metavar="NAME",
        help="benchmark app to sweep (histogram, indexgather, alltoall, "
        "phold, pingack)",
    )
    sweep.add_argument(
        "--axes",
        default=None,
        metavar="SPEC",
        help=(
            "swept axes as 'name=v1,v2,...;name2=...' — e.g. "
            "'nodes=1,2,4;scheme=WW,WPs,PP'"
        ),
    )
    sweep.add_argument(
        "--fixed",
        default=None,
        metavar="SPEC",
        help="constant app parameters, 'name=value,name=value' — e.g. "
        "'updates_per_pe=2000,buffer_items=64'",
    )
    sweep.add_argument(
        "--seeds",
        default="0",
        metavar="LIST",
        help="comma-separated seeds replicating every cell (default: 0)",
    )
    sweep.add_argument(
        "--metric",
        default="total_time_ns",
        metavar="NAME",
        help="result attribute to record per point (default: total_time_ns)",
    )
    sweep.add_argument(
        "--max-points",
        type=int,
        default=None,
        metavar="N",
        help="execute at most N points then stop (cache hits are free); "
        "an interrupted sweep resumes from its cache",
    )
    return parser


# ----------------------------------------------------------------------
# Sweep-spec parsing
# ----------------------------------------------------------------------
def _coerce(text: str):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def _parse_axes(spec: str) -> dict:
    axes = {}
    for part in spec.split(";"):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(f"bad axis {part!r} (want name=v1,v2,...)")
        name, values = part.split("=", 1)
        axes[name.strip()] = [_coerce(v.strip()) for v in values.split(",") if v.strip()]
    if not axes:
        raise ValueError("no axes given")
    return axes


def _parse_fixed(spec: str) -> dict:
    fixed = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(f"bad parameter {part!r} (want name=value)")
        name, value = part.split("=", 1)
        fixed[name.strip()] = _coerce(value.strip())
    return fixed


def _timeline_config(args):
    """The :class:`~repro.obs.TimelineConfig` the flags ask for, or None."""
    if not getattr(args, "timeline", False):
        return None
    from repro.obs import TimelineConfig

    return TimelineConfig(
        cadence_ns=args.timeline_cadence, capacity=args.timeline_capacity
    )


def _run_sweep_cmd(args) -> int:
    import functools
    import json as _json

    from repro.errors import HarnessError
    from repro.harness.pool import SweepInterrupted, run_app_point
    from repro.harness.sweep import run_sweep

    if not args.axes:
        print("error: sweep needs --axes 'name=v1,v2;...'", file=sys.stderr)
        return 2
    try:
        axes = _parse_axes(args.axes)
        fixed = _parse_fixed(args.fixed) if args.fixed else {}
        seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    fn = functools.partial(run_app_point, args.app, args.metric, **fixed)
    # The fixed parameters are folded into the cache tag (they are not
    # part of the per-point params), so differently-pinned sweeps never
    # share cache entries.
    tag = f"app:{args.app}:{args.metric}:" + _json.dumps(
        fixed, sort_keys=True, separators=(",", ":")
    )
    cache_dir = None
    if not args.no_cache:
        cache_dir = (
            args.cache_dir
            if args.cache_dir is not None
            else Path(".repro-cache") / "sweep"
        )
    t0 = time.perf_counter()
    try:
        result = run_sweep(
            fn,
            axes,
            seeds=seeds,
            metric=args.metric,
            metrics_path=args.metrics_out,
            flow=args.flow,
            timeline=_timeline_config(args),
            parallel=args.parallel,
            cache_dir=cache_dir,
            fresh=args.fresh,
            tag=tag,
            max_executions=args.max_points,
            status=args.status,
            status_json=args.status_json,
            retries=args.retries,
            point_timeout_s=args.point_timeout,
            drain_signals=True,
        )
    except SweepInterrupted as exc:
        print(f"sweep interrupted: {exc}", file=sys.stderr)
        return 3
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - t0
    table = result.to_table()
    print(table)
    summary = result.pool_summary_text()
    if summary:
        print(summary)
    hits, points = result.total_cache_hits, result.total_points
    print(
        f"[swept {points} point(s) in {elapsed:.1f}s wall with "
        f"--parallel {args.parallel}: {hits} cache hit(s), "
        f"{points - hits} executed]"
    )
    if args.metrics_out is not None:
        print(f"[metrics artifact written to {args.metrics_out}]")
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / f"sweep_{args.app}_{args.metric}.txt").write_text(
            table + "\n"
        )
    return 0


def _run_one(
    fig_id: str,
    profile: str,
    out: Optional[Path],
    metrics_out: Optional[Path] = None,
    faults: Optional[str] = None,
    flow: Optional[str] = None,
    parallel: int = 1,
    cache_dir: Optional[Path] = None,
    fresh: bool = False,
    timeline=None,
    status: bool = False,
    status_json: Optional[Path] = None,
    retries: int = 0,
    point_timeout_s: Optional[float] = None,
) -> None:
    t0 = time.perf_counter()
    data = run_figure(
        fig_id, profile, metrics_path=metrics_out, faults=faults, flow=flow,
        timeline=timeline, parallel=parallel, cache_dir=cache_dir,
        fresh=fresh, status=status, status_json=status_json,
        retries=retries, point_timeout_s=point_timeout_s,
    )
    elapsed = time.perf_counter() - t0
    report = data.render()
    print(report)
    suffix = f" under faults '{faults}'" if faults else ""
    if flow:
        suffix += f" with flow control '{flow}'"
    if parallel != 1:
        suffix += f" at --parallel {parallel}"
    print(f"[{fig_id} regenerated in {elapsed:.1f}s wall{suffix}]")
    if metrics_out is not None:
        print(f"[metrics artifact written to {metrics_out}]")
    print()
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{fig_id}.txt").write_text(report + "\n")


def _validate_metrics(path: Optional[Path]) -> int:
    import json

    from repro.harness.artifact import validate_metrics_payload

    if path is None:
        print("error: validate-metrics needs a path argument", file=sys.stderr)
        return 2
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return 2
    errors = validate_metrics_payload(payload)
    if errors:
        for err in errors:
            print(f"INVALID: {err}")
        return 1
    runs = payload.get("runs", [])
    verdict = (payload.get("summary") or {}).get("bottleneck")
    line = (
        f"OK: {path} ({payload.get('target')}, {len(runs)} run(s), "
        f"bottleneck: {verdict})"
    )
    print(line)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if getattr(args, "faults", None) is not None:
        from repro.errors import FaultInjectionError
        from repro.faults import FaultPlan

        try:
            FaultPlan.parse(args.faults)
        except FaultInjectionError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if getattr(args, "flow", None) is not None:
        from repro.errors import FlowControlError
        from repro.flow import FlowConfig

        try:
            FlowConfig.parse(args.flow)
        except FlowControlError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if args.target == "list":
        width = max(len(k) for k in FIGURES)
        for fig_id, (_, desc) in FIGURES.items():
            print(f"{fig_id.ljust(width)}  {desc}")
        return 0
    if args.target == "validate-metrics":
        return _validate_metrics(args.path)
    if args.target == "timeline-plot":
        from repro.harness.timeline_plot import run_timeline_plot

        return run_timeline_plot(args.path, out=args.out)
    if args.target == "sweep":
        return _run_sweep_cmd(args)
    fig_cache = None if args.no_cache else args.cache_dir
    if args.target == "all":
        for fig_id in FIGURES:
            metrics_out = (
                args.metrics_out / f"{fig_id}.json"
                if args.metrics_out is not None
                else None
            )
            _run_one(
                fig_id, args.profile, args.out, metrics_out, args.faults,
                args.flow, args.parallel, fig_cache, args.fresh,
                _timeline_config(args), args.status, args.status_json,
                args.retries, args.point_timeout,
            )
        return 0
    if args.target == "validate":
        from repro.harness.validate import render_results, validate_reproduction

        results = validate_reproduction(
            profile=args.profile, parallel=args.parallel, cache_dir=fig_cache,
            retries=args.retries, point_timeout_s=args.point_timeout,
        )
        print(render_results(results))
        failed = [r for r in results if not r.passed]
        print(f"\n{len(results) - len(failed)}/{len(results)} checks passed")
        return 1 if failed else 0
    if args.target == "report":
        from repro.harness.report import write_report

        outdir = args.out if args.out is not None else Path("results")
        outdir.mkdir(parents=True, exist_ok=True)
        path = write_report(outdir / "REPORT.md", profile=args.profile)
        print(f"wrote {path}")
        return 0
    if args.target not in FIGURES:
        print(
            f"error: unknown target {args.target!r} "
            f"(known: {', '.join(FIGURES)}, all, sweep, report, validate, "
            f"validate-metrics, timeline-plot, list)",
            file=sys.stderr,
        )
        return 2
    _run_one(
        args.target, args.profile, args.out, args.metrics_out, args.faults,
        args.flow, args.parallel, fig_cache, args.fresh,
        _timeline_config(args), args.status, args.status_json,
        args.retries, args.point_timeout,
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
