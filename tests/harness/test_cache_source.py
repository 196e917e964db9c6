"""The result cache is keyed on the simulator source and the run config.

A cached point must never outlive an edit to the code that computed it:
``point_key`` folds in a fingerprint of the simulation packages,
computed lazily once per process. Nor may it answer for a run config
that computes something else: every result-determining field of the
active :class:`~repro.runconfig.RunConfig` is part of the key.
"""

import functools
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

from repro.faults import FaultPlan, FaultSession
from repro.harness import cache as cache_mod
from repro.harness.cache import point_key, source_fingerprint
from repro.harness.pool import map_points, run_app_point
from repro.runconfig import PoolConfig, RunConfig, RunContext

_SRC = Path(__file__).resolve().parents[2] / "src"

_SWEEP = [
    "sweep", "--app", "histogram",
    "--axes", "scheme=WPs",
    "--fixed", "nodes=1,updates_per_pe=200,buffer_items=16,batch=100",
    "--seeds", "0",
]


def _sweep(src: Path, cache_dir: Path, out: Path) -> dict:
    """Run the one-point sweep CLI on the tree at ``src``; return its
    artifact."""
    subprocess.run(
        [sys.executable, "-m", "repro.harness", *_SWEEP,
         "--cache-dir", str(cache_dir), "--metrics-out", str(out)],
        env=dict(os.environ, PYTHONPATH=str(src)),
        check=True,
        capture_output=True,
        timeout=120,
    )
    return json.loads(out.read_text())


def _hits_and_value(payload: dict):
    summary = payload["provenance"]["summary"]
    return summary["cache_hits"], payload["sweep"]["cells"][0]["mean"]


class TestSourceFingerprint:
    def test_stable_and_hex(self):
        fp = source_fingerprint()
        assert fp == source_fingerprint()
        assert len(fp) == 64 and int(fp, 16) >= 0

    def test_folded_into_point_key(self, monkeypatch):
        before = point_key(tag="t", params={"x": 1}, seed=0)
        monkeypatch.setattr(cache_mod, "source_fingerprint", lambda: "0" * 64)
        after = point_key(tag="t", params={"x": 1}, seed=0)
        assert before != after

    def test_not_computed_at_import(self):
        code = (
            "import repro, repro.harness.cli\n"
            "from repro.harness.cache import source_fingerprint\n"
            "print(source_fingerprint.cache_info().currsize)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=str(_SRC)),
            check=True, capture_output=True, text=True, timeout=60,
        ).stdout
        assert out.strip() == "0"


class TestStaleCacheAfterCodeEdit:
    def test_edit_to_scheme_cost_misses(self, tmp_path):
        """Cache a point from a copy of ``src/``, make a 10x edit to the
        WPs insert charge in the copy, and re-run: the point must miss
        and compute the new truth (it used to be served stale)."""
        src = tmp_path / "src"
        shutil.copytree(
            _SRC, src, ignore=shutil.ignore_patterns("__pycache__")
        )
        cache_dir = tmp_path / "cache"

        cold = _sweep(src, cache_dir, tmp_path / "cold.json")
        warm = _sweep(src, cache_dir, tmp_path / "warm.json")
        hits, cold_value = _hits_and_value(cold)
        assert hits == 0
        assert _hits_and_value(warm) == (1, cold_value)

        wps = src / "repro" / "tram" / "schemes" / "wps.py"
        text = wps.read_text()
        assert text.count("self.rt.costs.item_insert_ns") == 2
        wps.write_text(
            text.replace(
                "self.rt.costs.item_insert_ns",
                "10 * self.rt.costs.item_insert_ns",
            )
        )

        edited = _sweep(src, cache_dir, tmp_path / "edited.json")
        hits, edited_value = _hits_and_value(edited)
        assert hits == 0
        assert edited_value > cold_value


class TestReliabilityKeyed:
    """Reorder faults on a 2x2x2 WW histogram: the reliable-delivery
    layer's acks and resequencing change the answer, so a point computed
    with reliability on must never be served to a run without it."""

    POINT = {"nodes": 2, "ppn": 2, "wpp": 2, "scheme": "WW",
             "updates_per_pe": 256}
    HISTO = functools.partial(run_app_point, "histogram", "total_time_ns")
    PLAN = FaultPlan.parse("reorder=0.2")

    def test_reliability_off_misses_reliability_on_entry(self, tmp_path):
        cached = RunConfig(pool=PoolConfig(cache_dir=tmp_path))
        with RunContext(cached):
            with FaultSession(self.PLAN):
                (on,) = map_points(self.HISTO, [self.POINT], tag="rel-leak")
            with FaultSession(self.PLAN, reliability=None):
                (off,) = map_points(self.HISTO, [self.POINT], tag="rel-leak")
        with FaultSession(self.PLAN, reliability=None):
            uncached = self.HISTO(seed=0, **self.POINT)
        assert on.cache_hit is False
        assert off.cache_hit is False
        assert off.value == uncached
        assert off.value != on.value
