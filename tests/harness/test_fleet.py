"""Tests for the live fleet telemetry (``repro.harness.fleet``)."""

import io
import json

from repro.harness.fleet import STATUS_SCHEMA, FleetStatus, make_fleet_status
from repro.harness.pool import PoolConfig
from repro.harness.sweep import run_sweep
from repro.runconfig import RunConfig


class TestAccounting:
    def test_initial_state(self):
        fs = FleetStatus(10, cache_hits=3, nworkers=2)
        assert fs.done == 3  # upfront hits count as completed
        assert fs.queue_depth == 7
        assert fs.hit_rate == 0.3
        assert fs.eta_s() is None  # nothing executed yet

    def test_point_completion_updates_workers(self):
        fs = FleetStatus(4, nworkers=2, interval_s=1e9)
        fs.on_heartbeat(1, {"params": {"x": 1}})
        assert fs.workers[1]["current"] == {"x": 1}
        fs.on_point_done(1, 0.25)
        assert fs.workers[1] == {"points": 1, "wall_s": 0.25, "current": None}
        assert fs.done == 1
        assert fs.executed == 1
        assert fs.queue_depth == 3

    def test_cache_hit_not_charged_to_a_worker(self):
        fs = FleetStatus(2, interval_s=1e9)
        fs.on_point_done(0, 0.0, cache_hit=True)
        assert fs.cache_hits == 1
        assert fs.executed == 0
        assert fs.workers == {}

    def test_supervision_counters(self):
        fs = FleetStatus(4, nworkers=2, interval_s=1e9)
        fs.on_heartbeat(1, {"params": {"x": 1}})
        fs.on_retry(0)
        fs.on_retry(0)
        fs.on_restart("worker 1 died")
        fs.on_poisoned(1)
        assert fs.retries == 2
        assert fs.restarts == 1
        assert fs.poisoned == 1
        assert fs.done == 1  # a poisoned point is resolved, not executed
        assert fs.executed == 0
        assert fs.workers[1]["current"] is None  # quarantine clears it
        p = fs.status_payload()
        assert p["retries"] == 2
        assert p["poisoned"] == 1
        assert p["restarts"] == 1
        line = fs.render_line()
        assert "poisoned 1" in line and "restarts 1" in line


class TestPayload:
    def test_status_payload_shape(self):
        fs = FleetStatus(8, cache_hits=2, nworkers=2, interval_s=1e9)
        fs.on_heartbeat(1, {"params": {"nodes": 2}})
        fs.on_point_done(1, 0.5)
        p = fs.status_payload()
        assert p["schema"] == STATUS_SCHEMA
        assert p["points_total"] == 8
        assert p["points_done"] == 3
        assert p["queue_depth"] == 5
        assert p["cache_hits"] == 2
        assert p["executed"] == 1
        assert p["workers"]["1"]["points"] == 1
        assert p["throughput_pts_per_s"] >= 0
        assert json.loads(json.dumps(p)) == p  # JSON-serializable

    def test_render_line_mentions_the_essentials(self):
        fs = FleetStatus(64, cache_hits=8, nworkers=2, interval_s=1e9)
        fs.on_heartbeat(1, {"params": {}})
        for _ in range(4):
            fs.on_point_done(1, 0.01)
        line = fs.render_line()
        assert "[sweep 12/64]" in line
        assert "queue 52" in line
        assert "hits 8 (12%)" in line
        assert "pt/s" in line
        assert "eta" in line
        assert "workers" in line


class TestEmission:
    def test_json_file_written_atomically(self, tmp_path):
        path = tmp_path / "nested" / "status.json"
        fs = FleetStatus(2, path=path, interval_s=0.0)
        fs.on_point_done(0, 0.1)
        doc = json.loads(path.read_text())
        assert doc["schema"] == STATUS_SCHEMA
        assert doc["points_done"] == 1
        assert not list(tmp_path.glob("**/*.tmp.*"))  # no torn temp files

    def test_throttle_suppresses_rapid_updates(self, tmp_path):
        path = tmp_path / "status.json"
        fs = FleetStatus(100, path=path, interval_s=1e9)
        for _ in range(51):
            fs.on_point_done(0, 0.0)
        assert not path.exists()  # throttled: nothing written yet
        fs.finish()  # forced final emission flushes the true state
        assert json.loads(path.read_text())["points_done"] == 51

    def test_stream_line_rewrites_in_place(self):
        buf = io.StringIO()
        fs = FleetStatus(2, stream=buf, interval_s=0.0)
        fs.on_point_done(0, 0.0)
        fs.finish()
        out = buf.getvalue()
        assert out.startswith("\r\x1b[2K")
        assert out.endswith("\n")


class TestFactory:
    def test_disabled_without_flags(self):
        assert make_fleet_status(PoolConfig(), 4, 0, 0) is None

    def test_status_json_enables_file_only(self, tmp_path):
        cfg = PoolConfig(status_json=tmp_path / "s.json")
        fs = make_fleet_status(cfg, 4, 1, 2)
        assert fs is not None
        assert fs.stream is None
        assert fs.path == tmp_path / "s.json"
        assert fs.cache_hits == 1


def _square(x, seed):
    return float(x * x)


class TestSweepIntegration:
    def test_serial_sweep_writes_complete_status(self, tmp_path):
        path = tmp_path / "status.json"
        run_sweep(_square, {"x": [1, 2, 3]}, seeds=(0, 1), tag="fleet-int",
                  config=RunConfig(pool=PoolConfig(status_json=path)))
        doc = json.loads(path.read_text())
        assert doc["schema"] == STATUS_SCHEMA
        assert doc["points_done"] == doc["points_total"] == 6
        assert doc["queue_depth"] == 0
        assert doc["eta_s"] in (None, 0.0)

    def test_parallel_sweep_reports_worker_fleet(self, tmp_path):
        path = tmp_path / "status.json"
        run_sweep(
            _square, {"x": [1, 2, 3, 4]}, seeds=(0, 1), tag="fleet-int",
            config=RunConfig(pool=PoolConfig(parallel=2, status_json=path)),
        )
        doc = json.loads(path.read_text())
        assert doc["points_done"] == 8
        assert doc["executed"] == 8
        assert sum(w["points"] for w in doc["workers"].values()) == 8
        # Worker ids are the pool's (1-based), not the serial 0.
        assert all(int(wid) >= 1 for wid in doc["workers"])

    def test_status_does_not_perturb_results(self, tmp_path):
        quiet = run_sweep(_square, {"x": [1, 2]}, seeds=(0,), tag="fleet-int")
        loud = run_sweep(
            _square, {"x": [1, 2]}, seeds=(0,), tag="fleet-int",
            config=RunConfig(pool=PoolConfig(status_json=tmp_path / "s.json")),
        )
        assert [c.values for c in quiet.cells] == [
            c.values for c in loud.cells
        ]
