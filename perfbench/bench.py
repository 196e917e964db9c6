"""Measurement and output checking behind ``run.py``.

Importing this module imports :mod:`repro`; ``run.py`` puts the
chosen build's directory on ``sys.path`` first.
"""

from __future__ import annotations

import ctypes
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional

from layers import LayerProfile
from workloads import compare, point_label, run_point

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

#: Fresh process pairs (checkout, pinned) whose start-up CPU time is
#: compared; ``setup_s`` uses the median ratio.
SETUP_PROBES = 3
CHILD_TIMEOUT_S = 120

#: Measuring processes get a fixed string-hash seed and (below) no
#: address-space randomization, so every one of them lays out its heap
#: the same way. With random layouts, two processes running identical
#: code differed by up to 10-20% on the same point.
CHILD_ENV = dict(os.environ, PYTHONHASHSEED="0")
_ADDR_NO_RANDOMIZE = 0x0040000

#: The one CPU every measuring process is bound to. Two processes that
#: run at the same time on one CPU are interleaved every few
#: milliseconds, so whatever else the host is doing slows both alike.
MEASURE_CPU = max(os.sched_getaffinity(0))


def _child_setup() -> None:
    """Runs in each measuring child between fork and exec."""
    os.sched_setaffinity(0, {MEASURE_CPU})
    try:
        ctypes.CDLL(None).personality(_ADDR_NO_RANDOMIZE)
    except (OSError, AttributeError):  # no personality(2): keep the random layout
        pass


def _spawn(workload, seed: int, build: str, mode: str, **kwargs):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload.name,
           "--seed", str(seed), "--build", build, mode]
    return subprocess.Popen(cmd, env=CHILD_ENV, preexec_fn=_child_setup,
                            text=True, **kwargs)


def load_reference(path: Path = REFERENCE) -> dict:
    with open(path) as f:
        return json.load(f)


def execute(workload, point: dict, seed: int, profiler=None) -> dict:
    """Run one point; return its CPU seconds, items, outputs, invariant
    problems and counts (JSON-ready), or the traceback if it raised."""
    try:
        res, cpu = run_point(workload, point, seed, profiler)
    except Exception:  # a crashing point is a failed operation, not a crash
        return {"error": traceback.format_exc()}
    return {
        "cpu": cpu,
        "items": res.items,
        "outputs": res.outputs,
        "problems": res.problems,
        "counts": res.counts,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _sound(reply: dict) -> bool:
    return "error" not in reply and not reply["problems"]


class Tally:
    """Checks each point's reply and counts attempted and failed operations.

    A point fails when it raised, broke an invariant, differs from the
    recorded reference for its seed, or differs from an earlier run of
    the same point (the simulator is deterministic).
    """

    def __init__(self, workload, seed: int, reference: dict) -> None:
        self.workload = workload
        self.seed = seed
        by_seed = reference.get(workload.name, {})
        self.expected: Optional[Dict[str, dict]] = by_seed.get(str(seed))
        self.seen: Dict[str, dict] = {}
        self.attempted = 0
        self.failed = 0

    def check(self, point: dict, reply: dict) -> Optional[dict]:
        """Count and check one point; return its reply, or ``None`` if it raised."""
        self.attempted += 1
        label = point_label(point)
        if "error" in reply:
            self.failed += 1
            print(f"FAILED {label}: raised\n{reply['error']}", file=sys.stderr)
            return None
        problems = list(reply["problems"])
        if label in self.seen:
            problems += compare(reply["outputs"], self.seen[label])
        else:
            self.seen[label] = reply["outputs"]
        if self.expected is not None:
            want = self.expected.get(label)
            if want is None:
                problems.append("no reference recorded for this point")
            else:
                problems += compare(reply["outputs"], want)
        if problems:
            self.failed += 1
            print(f"FAILED {label}: " + "; ".join(problems), file=sys.stderr)
        return reply

    def run(self, point: dict, profiler=None) -> Optional[dict]:
        """Run one point in this process and check it."""
        return self.check(point, execute(self.workload, point, self.seed, profiler))

    def result(self, metrics: Dict[str, tuple]) -> dict:
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }


def setup_probe(workload, seed: int) -> None:
    """Child side of :func:`probe_setup`: warm up, then report the CPU
    seconds this process has used since it started."""
    warm = execute(workload, workload.warmup_point(), seed)
    print(json.dumps({"cpu": time.process_time(), "ok": _sound(warm)}))


def probe_setup(workload, seed: int) -> Dict[str, float]:
    """Start a fresh process of each build at once on the measuring CPU;
    return each one's CPU seconds from start to the end of its warm-up."""
    procs = {build: _spawn(workload, seed, build, "--setup-probe",
                           stdout=subprocess.PIPE, stderr=subprocess.PIPE)
             for build in ("checkout", "pinned")}
    took = {}
    try:
        for build, proc in procs.items():
            out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
            if proc.returncode != 0:
                raise RuntimeError(f"{build} setup probe failed ({proc.returncode}):\n{err}")
            ready = json.loads(out.strip().splitlines()[-1])
            if not ready["ok"]:
                raise RuntimeError(f"{build} setup probe's warm-up point failed:\n{err}")
            took[build] = ready["cpu"]
    finally:
        for proc in procs.values():
            if proc.poll() is None:
                proc.kill()
            proc.communicate()
    return took


def serve(workload, seed: int) -> None:
    """Child side of :class:`Worker`: reply to the warm-up point, then to
    each point sent on stdin."""
    print(json.dumps(execute(workload, workload.warmup_point(), seed)), flush=True)
    for line in sys.stdin:
        print(json.dumps(execute(workload, json.loads(line), seed)), flush=True)


class Worker:
    """One build of the simulator in a child process, running points on request."""

    def __init__(self, build: str, workload, seed: int) -> None:
        self.build = build
        self.proc = _spawn(workload, seed, build, "--serve",
                           stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self.warmup: dict = {}

    def __enter__(self) -> "Worker":
        try:
            self.warmup = self.receive()
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()

    def send(self, point: dict) -> None:
        self.proc.stdin.write(json.dumps(point) + "\n")
        self.proc.stdin.flush()

    def receive(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            self.proc.wait()
            raise RuntimeError(f"{self.build} build exited ({self.proc.returncode})")
        return json.loads(line)


def relative_speed(pairs: List[List[tuple]]) -> float:
    """The checkout's speed relative to the pinned build, from ``(checkout_s,
    pinned_s)`` CPU-time pairs per point.

    Each point's speed-up is the median of its pair ratios; the points
    are combined by their pinned cost, so a point that takes twice the
    time weighs twice as much (as in a whole pass).
    """
    pinned = [statistics.median(p for _, p in ps) for ps in pairs if ps]
    ratios = [statistics.median(p / c for c, p in ps) for ps in pairs if ps]
    return sum(pinned) / sum(w / r for w, r in zip(pinned, ratios))


def measure_timed(workload, seed: int, seconds: float, *, size: str = "full",
                  reference: dict, probes: int = SETUP_PROBES) -> dict:
    """End-to-end metrics: item throughput, set-up time and peak RSS.

    The checkout and the pinned build each run in a child process bound
    to the same CPU. The host's speed swings by tens of percent within
    seconds as other tenants come and go, so every point runs on both
    builds at once, for one full pass and then until ``seconds`` of wall
    time have elapsed; the pair's CPU times share the host's state.
    ``items_per_s`` is the pinned build's throughput on the reference
    host times the checkout's measured speed relative to it;
    ``setup_s`` likewise scales the reference set-up time by the median
    checkout/pinned probe ratio. ``peak_rss_mb`` is the checkout
    process's peak over its warm-up and the first pass.
    """
    tally = Tally(workload, seed, reference)
    points = workload.points(size)
    pairs: List[List[tuple]] = [[] for _ in points]
    items = [0] * len(points)
    peak_rss_mb = 0.0
    with Worker("checkout", workload, seed) as checkout, \
            Worker("pinned", workload, seed) as pinned:
        if tally.check(workload.warmup_point(), checkout.warmup) is not None:
            peak_rss_mb = checkout.warmup["peak_rss_mb"]
        if not _sound(pinned.warmup):
            raise RuntimeError(f"pinned build failed its warm-up point: {pinned.warmup}")
        setup = []
        for _ in range(probes):
            took = probe_setup(workload, seed)
            setup.append((took["checkout"], took["pinned"]))
        deadline = time.monotonic() + seconds
        for n, (i, point) in enumerate(itertools.cycle(enumerate(points))):
            if n >= len(points) and time.monotonic() >= deadline:
                break
            checkout.send(point)
            pinned.send(point)
            cur, pin = checkout.receive(), pinned.receive()
            if not _sound(pin):
                raise RuntimeError(f"pinned build failed on {point_label(point)}: {pin}")
            reply = tally.check(point, cur)
            if reply is not None:
                items[i] = reply["items"]
                pairs[i].append((reply["cpu"], pin["cpu"]))
                if n < len(points):  # how many more passes fit depends on the host
                    peak_rss_mb = max(peak_rss_mb, reply["peak_rss_mb"])
    for point, ps in zip(points, pairs):
        print(f"{point['scheme']} checkout/pinned CPU-s: "
              + " ".join(f"{c:.4f}/{p:.4f}" for c, p in ps))
    speed = 0.0
    if any(pairs):
        speed = relative_speed(pairs)
        raw = [sum(items) / sum(statistics.median(p[k] for p in ps) for ps in pairs if ps)
               for k in (0, 1)]
        print(f"{sum(map(len, pairs))} point pairs on this host: checkout {raw[0]:.1f} "
              f"items/s, pinned {raw[1]:.1f} items/s; checkout speed {speed:.4f}x pinned")
    print("setup samples checkout/pinned (CPU-s): "
          + ", ".join(f"{c:.4f}/{p:.4f}" for c, p in setup))
    return tally.result({
        "items_per_s": (workload.ref_items_per_s * speed, "1/s"),
        "setup_s": (workload.ref_setup_s * statistics.median(c / p for c, p in setup), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    })


def measure_traced(workload, seed: int, *, size: str = "full",
                   reference: dict) -> dict:
    """Per-layer metrics from one untraced and one traced pass over the
    points, both in this process."""
    tally = Tally(workload, seed, reference)
    tally.run(workload.warmup_point())
    untraced = 0.0
    for point in workload.points(size):
        reply = tally.run(point)
        if reply is not None:
            untraced += reply["cpu"]
    prof = LayerProfile()
    traced = 0.0
    items = 0
    counts: Dict[str, int] = {}
    for point in workload.points(size):
        reply = tally.run(point, prof.profiler)
        if reply is not None:
            traced += reply["cpu"]
            items += reply["items"]
            for name, n in reply["counts"].items():
                counts[name] = counts.get(name, 0) + n
    self_s, calls, total = prof.summary()
    counts.update(calls)
    print(f"untraced {untraced:.3f} CPU-s, traced {traced:.3f} CPU-s, "
          f"profiled self time {total:.3f} s")
    metrics = {f"{layer}.self_s": (t, "s") for layer, t in self_s.items()}
    metrics.update({name: (n, "count") for name, n in sorted(counts.items())})
    arms = counts["sim.timer_arms"]
    metrics["sim.timer_cancel_ratio"] = (
        counts["sim.timer_cancels"] / arms if arms else 0.0, "ratio")
    metrics["sim.events_per_item"] = (counts["sim.events"] / items, "ratio")
    metrics["trace.overhead"] = (traced / untraced, "ratio")
    return tally.result(metrics)


def record(workload, seed: int) -> int:
    """Write the simulated outputs of the warm-up point and one pass into
    ``reference.json`` for ``seed``."""
    outputs = {}
    for point in [workload.warmup_point()] + workload.points():
        res, _ = run_point(workload, point, seed)
        if res.problems:
            print(f"{point_label(point)}: " + "; ".join(res.problems), file=sys.stderr)
            return 1
        outputs[point_label(point)] = res.outputs
    ref = load_reference() if REFERENCE.exists() else {}
    ref.setdefault(workload.name, {})[str(seed)] = outputs
    with open(REFERENCE, "w") as f:
        json.dump(ref, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"recorded {len(outputs)} points of {workload.name} for seed {seed}")
    return 0
