"""Self-tests of the benchmark at toy sizes.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run

run.import_repro()

import bench  # noqa: E402  (needs repro on sys.path)
from workloads import WORKLOADS, point_label, run_point  # noqa: E402

SPEC = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]
SEED = 3


def units(result: dict) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def toy_reference(workload, seed: int) -> dict:
    outputs = {
        point_label(p): run_point(workload, p, seed)[0].outputs
        for p in workload.points("toy")
    }
    return {workload.name: {str(seed): outputs}}


@pytest.fixture(scope="module")
def traced():
    return {
        name: bench.measure_traced(WORKLOADS[name], SEED, size="toy", reference={})
        for name in NAMES
    }


def test_workloads_match_the_spec():
    assert sorted(NAMES) == sorted(WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
def test_timed_run_prints_every_end_to_end_metric(name):
    result = bench.measure_timed(
        WORKLOADS[name], SEED, 0.0, size="toy", reference={}, probes=1
    )
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 1 + len(WORKLOADS[name].points("toy"))
    assert units(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_prints_every_per_layer_metric(name, traced):
    result = traced[name]
    assert result["correct"] and result["failed"] == 0
    assert units(result) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def test_layers_entered_only_where_expected(traced):
    for name, result in traced.items():
        m = {k: v["value"] for k, v in result["metrics"].items()}
        if name != "ig_faulty":
            for key in ("runtime.reliability.self_s", "flow.self_s", "faults.self_s",
                        "sim.timer_arms", "runtime.reliability.retransmits"):
                assert m[key] == 0, (name, key)
        if name == "phold_latency":
            assert m["tram.buffer.take_calls"] == 0
    ig = {k: v["value"] for k, v in traced["ig_faulty"]["metrics"].items()}
    assert ig["sim.timer_arms"] > 0 and ig["flow.self_s"] > 0
    histo = {k: v["value"] for k, v in traced["histo_weak"]["metrics"].items()}
    assert histo["tram.buffer.take_calls"] > 0


def test_counts_repeat_across_traced_runs(traced):
    for name in NAMES:
        again = bench.measure_traced(WORKLOADS[name], SEED, size="toy", reference={})
        counts = {k: v["value"] for k, v in traced[name]["metrics"].items()
                  if v["unit"] == "count"}
        assert counts == {k: v["value"] for k, v in again["metrics"].items()
                          if v["unit"] == "count"}


def test_matching_reference_passes_and_corrupted_value_fails():
    workload = WORKLOADS["phold_latency"]
    ref = toy_reference(workload, SEED)
    ok = bench.measure_traced(workload, SEED, size="toy", reference=ref)
    assert ok["correct"] and ok["failed"] == 0

    label = point_label(workload.points("toy")[1])
    ref[workload.name][str(SEED)][label]["events_rejected"] += 1
    bad = bench.measure_traced(workload, SEED, size="toy", reference=ref)
    # the corrupted point runs once untraced and once traced
    assert not bad["correct"] and bad["failed"] == 2
    assert bad["attempted"] == ok["attempted"]
    # the timed run checks replies that crossed the worker pipe as JSON
    timed = bench.measure_timed(workload, SEED, 0.0, size="toy", reference=ref, probes=1)
    assert not timed["correct"] and timed["failed"] == 1


def test_exits_nonzero_without_the_simulator_source(tmp_path):
    shutil.copy(run.HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", NAMES[0], "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
