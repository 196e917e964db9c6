"""Tests for the parallel sweep executor and its result cache."""

import functools
import json
import os
import random
import gc
import signal
import time
import weakref
from pathlib import Path

import pytest

from repro.errors import HarnessError
from repro.faults import FaultPlan
from repro.flow import FlowConfig
from repro.harness import cli
from repro.harness.artifact import (
    canonical_metrics_bytes,
    validate_metrics_payload,
)
from repro.harness.cache import CACHE_SCHEMA, ResultCache, point_key
from repro.harness.pool import (
    PoolConfig,
    SweepInterrupted,
    _scramble_ambient_rng,
    map_points,
    run_app_point,
)
from repro.harness.sweep import run_sweep
from repro.obs import ObsConfig, TimelineConfig
from repro.runconfig import RunConfig, RunContext
from repro.runtime import ReliabilityConfig


def _pool_context(config=PoolConfig()):
    """A run context executing points as ``config`` says."""
    return RunContext(RunConfig(pool=config))


def pooled(**pool):
    """A clean run config with the given pool settings."""
    return RunConfig(pool=PoolConfig(**pool))

# ----------------------------------------------------------------------
# Module-level point functions (stable tags; visible to forked workers)
# ----------------------------------------------------------------------
_CALLS = []


def _square(seed, *, x):
    _CALLS.append((x, seed))
    return float(x * x + seed)


def _boom(seed, *, x):
    raise ValueError(f"point {x} exploded")


def _counted_boom(seed, *, x):
    _CALLS.append((x, seed))
    raise ValueError(f"point {x} exploded")


def _ambient(seed, *, x):
    # Deliberately leaks dependence on the global RNG the executor
    # scrambles — results must differ between serial and parallel.
    return random.random()


class _Cycle:
    """Self-referencing garbage: only the cyclic collector frees it."""

    def __init__(self):
        self.me = self


_FINALIZED = []


def _cyclic(seed, *, x):
    # Reports how many earlier points' cycles were already freed, then
    # leaves one more cycle behind.
    freed = len(_FINALIZED)
    weakref.finalize(_Cycle(), _FINALIZED.append, x)
    return float(freed)


# Chaos point functions keyed off an out-of-band marker directory (env
# var, never a point param) so the degraded runs keep the exact params
# — and therefore the exact canonical artifact bytes — of clean runs.
_FAILDIR_ENV = "REPRO_TEST_FAILDIR"


def _marker_once(name):
    """True exactly once per marker name (False with chaos disabled)."""
    faildir = os.environ.get(_FAILDIR_ENV)
    if not faildir:
        return False
    marker = Path(faildir) / name
    if marker.exists():
        return False
    marker.touch()
    return True


def _flaky(seed, *, x):
    # Transient failure: the first attempt at every point fails.
    if _marker_once(f"flaky-{x}-{seed}"):
        raise ValueError(f"transient failure at x={x}")
    return float(x * x + seed)


def _kamikaze(seed, *, x):
    # One point SIGKILLs its worker mid-execution, once.
    if x == 2 and _marker_once("kamikaze"):
        os.kill(os.getpid(), signal.SIGKILL)
    return float(x * x + seed)


def _sleeper(seed, *, x):
    # One point hangs far past any sane timeout, once.
    if x == 1 and _marker_once("sleeper"):
        time.sleep(300)
    return float(x * x + seed)


#: Tiny histogram config so app-backed tests stay fast.
_HISTO = functools.partial(
    run_app_point, "histogram", "total_time_ns",
    updates_per_pe=200, buffer_items=16, batch=100,
)
_HISTO_TAG = "test:histo-tiny"
_AXES = {"nodes": [1], "scheme": ["WW", "WPs"]}


# ----------------------------------------------------------------------
# Content-addressed keys
# ----------------------------------------------------------------------
#: A non-default value for each RunConfig field that decides results
#: ("obs" stands for its timeline recorder).
_RESULT_FIELDS = {
    "faults": FaultPlan.parse("drop=0.01"),
    "reliability": ReliabilityConfig(),
    "flow": FlowConfig.parse("ct_msgs=8"),
    "obs": ObsConfig(timeline=TimelineConfig()),
}

#: A non-default value for every PoolConfig field.
_POOL_FIELDS = {
    "parallel": 4, "cache_dir": Path("cache"), "cache_read": False,
    "cache_write": False, "max_executions": 3, "status": True,
    "status_json": Path("status.json"), "status_interval_s": 2.0,
    "retries": 2, "point_timeout_s": 1.0, "backoff_base_s": 0.5,
    "backoff_max_s": 5.0, "max_restarts": 1, "quarantine": True,
    "drain_signals": True,
}


class TestPointKey:
    def test_stable(self):
        a = point_key(tag="t", params={"x": 1}, seed=0)
        b = point_key(tag="t", params={"x": 1}, seed=0)
        assert a == b
        assert len(a) == 64  # sha256 hex

    def test_param_order_irrelevant(self):
        a = point_key(tag="t", params={"x": 1, "y": 2}, seed=0)
        b = point_key(tag="t", params={"y": 2, "x": 1}, seed=0)
        assert a == b

    def test_sensitive_to_every_ingredient(self):
        base = point_key(tag="t", params={"x": 1}, seed=0)
        assert point_key(tag="u", params={"x": 1}, seed=0) != base
        assert point_key(tag="t", params={"x": 2}, seed=0) != base
        assert point_key(tag="t", params={"x": 1}, seed=1) != base

    def test_fault_plan_folds_in(self):
        from repro.faults import FaultPlan

        clean = point_key(tag="t", params={}, seed=0)
        faulty = point_key(
            tag="t", params={}, seed=0,
            run=RunConfig(faults=FaultPlan.parse("drop=0.01")).key_payload(),
        )
        assert clean != faulty

    def test_flow_config_folds_in(self):
        from repro.flow import FlowConfig

        clean = point_key(tag="t", params={}, seed=0)
        flowed = point_key(
            tag="t", params={}, seed=0,
            run=RunConfig(flow=FlowConfig.parse("ct_msgs=8")).key_payload(),
        )
        assert clean != flowed

    @pytest.mark.parametrize("field", list(_RESULT_FIELDS))
    def test_result_determining_field_changes_key(self, field):
        """Each result-determining RunConfig field, alone, moves the key."""
        clean = point_key(tag="t", params={}, seed=0,
                          run=RunConfig().key_payload())
        fields = {"reliability": None, field: _RESULT_FIELDS[field]}
        changed = RunConfig(**fields)
        assert point_key(
            tag="t", params={}, seed=0, run=changed.key_payload()
        ) != clean

    @pytest.mark.parametrize("field", sorted(_POOL_FIELDS))
    def test_pool_field_leaves_key_alone(self, field):
        """How points execute never changes what they compute."""
        base = RunConfig(faults="drop=0.01")
        changed = base.replace(pool=PoolConfig(**{field: _POOL_FIELDS[field]}))
        assert changed.key_payload() == base.key_payload()

    def test_pool_field_cases_cover_pool_config(self):
        assert set(_POOL_FIELDS) == set(PoolConfig.__dataclass_fields__)

    @pytest.mark.parametrize("obs", [ObsConfig(), ObsConfig(enabled=False)])
    def test_obs_flag_leaves_key_alone(self, obs):
        assert RunConfig(obs=obs).key_payload() == RunConfig().key_payload()

    def test_cost_model_folds_in(self):
        from repro.machine.costs import CostModel

        default = point_key(tag="t", params={}, seed=0)
        field = next(iter(CostModel.__dataclass_fields__))
        tweaked = CostModel(
            **{field: getattr(CostModel(), field) * 2}
        )
        assert point_key(tag="t", params={}, seed=0, costs=tweaked) != default


class TestResultCache:
    def test_roundtrip_and_layout(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = point_key(tag="t", params={"x": 1}, seed=0)
        path = cache.put(key, {"value": 42.0, "records": []})
        assert path == tmp_path / key[:2] / f"{key}.json"
        entry = cache.get(key)
        assert entry["value"] == 42.0
        assert entry["schema"] == CACHE_SCHEMA
        assert entry["key"] == key

    def test_missing_is_miss(self, tmp_path):
        assert ResultCache(tmp_path).get("0" * 64) is None

    def test_corrupt_file_is_miss_and_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ab" + "0" * 62
        path = cache.path_for(key)
        path.parent.mkdir(parents=True)
        path.write_text("{not json")
        assert cache.get(key) is None
        # Quarantined to <key>.bad: the corrupt JSON is parsed at most
        # once and the evidence survives for inspection.
        assert not path.exists()
        bad = path.with_suffix(".bad")
        assert bad.read_text() == "{not json"
        assert cache.get(key) is None  # still a miss, nothing re-parsed

    def test_quarantined_entry_can_be_rewritten(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = point_key(tag="t", params={"x": 1}, seed=0)
        cache.put(key, {"value": 1.0})
        cache.path_for(key).write_text("garbage")
        assert cache.get(key) is None
        cache.put(key, {"value": 2.0})
        assert cache.get(key)["value"] == 2.0

    def test_foreign_schema_is_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ab" + "0" * 62
        path = cache.path_for(key)
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps({"schema": "other/1", "key": key}))
        assert cache.get(key) is None
        assert path.with_suffix(".bad").exists()

    def test_key_mismatch_is_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ab" + "0" * 62
        cache.put(key, {"value": 1.0})
        moved = "cd" + "0" * 62
        cache.path_for(moved).parent.mkdir(parents=True, exist_ok=True)
        cache.path_for(key).rename(cache.path_for(moved))
        assert cache.get(moved) is None

    def test_put_fsyncs_each_entry_once(self, tmp_path, monkeypatch):
        """Every put makes its bytes durable before the atomic rename:
        one fsync per entry, of a file already holding the whole doc."""
        synced = []

        def fake_fsync(fd):
            synced.append(os.fstat(fd).st_size)

        monkeypatch.setattr(os, "fsync", fake_fsync)
        cache = ResultCache(tmp_path)
        for seed in range(3):
            key = point_key(tag="t", params={}, seed=seed)
            path = cache.put(key, {"value": float(seed)})
            assert synced[-1] == path.stat().st_size
        assert len(synced) == 3

    def test_len_and_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        for seed in range(3):
            cache.put(point_key(tag="t", params={}, seed=seed), {"value": 0})
        assert len(cache) == 3
        assert cache.clear() == 3
        assert len(cache) == 0


# ----------------------------------------------------------------------
# The executor
# ----------------------------------------------------------------------
class TestMapPointsSerial:
    def test_grid_major_order(self):
        outcomes = map_points(_square, [{"x": 1}, {"x": 2}], seeds=(0, 1))
        assert [o.spec.index for o in outcomes] == [0, 1, 2, 3]
        assert [o.value for o in outcomes] == [1.0, 2.0, 4.0, 5.0]
        assert all(not o.cache_hit for o in outcomes)

    def test_lambda_without_cache_ok(self):
        outcomes = map_points(lambda seed, x: float(x), [{"x": 7}])
        assert outcomes[0].value == 7.0

    def test_lambda_with_cache_needs_tag(self, tmp_path):
        with _pool_context(PoolConfig(cache_dir=tmp_path)):
            with pytest.raises(HarnessError, match="stable point tag"):
                map_points(lambda seed, x: float(x), [{"x": 1}])

    def test_cache_hit_skips_execution(self, tmp_path):
        grid = [{"x": 3}, {"x": 4}]
        _CALLS.clear()
        with _pool_context(PoolConfig(cache_dir=tmp_path)):
            cold = map_points(_square, grid)
        assert len(_CALLS) == 2
        with _pool_context(PoolConfig(cache_dir=tmp_path)) as ctx:
            warm = map_points(_square, grid)
            assert ctx.pool.cache_hits == 2 and ctx.pool.executed == 0
        assert len(_CALLS) == 2  # nothing re-ran
        assert [o.value for o in warm] == [o.value for o in cold]
        assert all(o.cache_hit for o in warm)

    def test_fresh_ignores_cache_but_rewrites(self, tmp_path):
        grid = [{"x": 5}]
        with _pool_context(PoolConfig(cache_dir=tmp_path)):
            map_points(_square, grid)
        _CALLS.clear()
        with _pool_context(
            PoolConfig(cache_dir=tmp_path, cache_read=False)
        ) as ctx:
            map_points(_square, grid)
            assert ctx.pool.executed == 1 and ctx.pool.cache_hits == 0
        assert len(_CALLS) == 1

    def test_budget_interrupts_then_resumes(self, tmp_path):
        grid = [{"x": i} for i in range(4)]
        with _pool_context(
            PoolConfig(cache_dir=tmp_path, max_executions=2)
        ):
            with pytest.raises(SweepInterrupted) as exc:
                map_points(_square, grid)
        assert exc.value.executed == 2
        assert exc.value.remaining == 2
        assert len(ResultCache(tmp_path)) == 2  # finished points persisted
        with _pool_context(PoolConfig(cache_dir=tmp_path)) as ctx:
            outcomes = map_points(_square, grid)
            assert ctx.pool.cache_hits == 2 and ctx.pool.executed == 2
        assert [o.value for o in outcomes] == [0.0, 1.0, 4.0, 9.0]

    def test_earlier_points_garbage_collected_first(self):
        """Each point starts with earlier points' cyclic garbage freed,
        even with automatic collection off."""
        _FINALIZED.clear()
        gc.disable()
        try:
            outcomes = map_points(_cyclic, [{"x": i} for i in range(3)])
        finally:
            gc.enable()
        assert [o.value for o in outcomes] == [0.0, 1.0, 2.0]

    def test_provenance_recorded(self):
        with _pool_context() as ctx:
            map_points(_square, [{"x": 1}], seeds=(0, 1))
            payload = ctx.pool.provenance_payload()
        assert [p["index"] for p in payload["points"]] == [0, 1]
        assert payload["summary"]["n_points"] == 2
        assert payload["summary"]["executed"] == 2
        assert payload["summary"]["cache_hits"] == 0


class TestMapPointsParallel:
    def test_matches_serial(self):
        grid = [{"x": i} for i in range(6)]
        serial = map_points(_square, grid, seeds=(0, 1))
        with _pool_context(PoolConfig(parallel=3)) as ctx:
            par = map_points(_square, grid, seeds=(0, 1))
            workers = {p["worker"] for p in ctx.pool.provenance}
        assert [o.value for o in par] == [o.value for o in serial]
        assert [o.spec.index for o in par] == list(range(12))
        assert workers <= {1, 2, 3} and workers  # pool workers, not parent

    def test_worker_error_propagates(self):
        with _pool_context(PoolConfig(parallel=2)):
            with pytest.raises(HarnessError, match="exploded"):
                map_points(_boom, [{"x": 0}, {"x": 1}])

    def test_ambient_rng_leak_diverges(self):
        """A point fn reading global RNG must not survive the identity
        tests: serial (token 0) and workers (tokens 1..N) scramble the
        ambient RNGs differently on purpose."""
        serial = map_points(_ambient, [{"x": 0}])
        with _pool_context(PoolConfig(parallel=2)):
            par = map_points(_ambient, [{"x": 0}, {"x": 1}])
        assert par[0].value != serial[0].value

    def test_parallel_populates_shared_cache(self, tmp_path):
        grid = [{"x": i} for i in range(4)]
        with _pool_context(PoolConfig(parallel=2, cache_dir=tmp_path)):
            map_points(_square, grid)
        assert len(ResultCache(tmp_path)) == 4
        with _pool_context(PoolConfig(cache_dir=tmp_path)) as ctx:
            map_points(_square, grid)
            assert ctx.pool.cache_hits == 4 and ctx.pool.executed == 0


class TestScramble:
    def test_deterministic_per_token(self):
        _scramble_ambient_rng(1)
        a = random.random()
        _scramble_ambient_rng(1)
        b = random.random()
        assert a == b

    def test_tokens_diverge(self):
        _scramble_ambient_rng(0)
        a = random.random()
        _scramble_ambient_rng(1)
        b = random.random()
        assert a != b


# ----------------------------------------------------------------------
# End-to-end determinism and resumability (satellites 1 and 3)
# ----------------------------------------------------------------------
class TestSweepDeterminism:
    def test_parallel_artifact_byte_identical_to_serial(self, tmp_path):
        """--parallel 1 and --parallel 8 must produce byte-identical
        artifacts modulo the volatile provenance fields."""
        kw = dict(seeds=(0, 1), metrics_path=None, tag=_HISTO_TAG)
        p1 = tmp_path / "serial.json"
        p8 = tmp_path / "par8.json"
        r1 = run_sweep(_HISTO, _AXES, metrics_path=p1, **{
            k: v for k, v in kw.items() if k != "metrics_path"})
        r8 = run_sweep(_HISTO, _AXES, metrics_path=p8,
                       config=pooled(parallel=8), **{
            k: v for k, v in kw.items() if k != "metrics_path"})
        assert [c.values for c in r8.cells] == [c.values for c in r1.cells]
        a = json.loads(p1.read_text())
        b = json.loads(p8.read_text())
        assert validate_metrics_payload(a) == []
        assert validate_metrics_payload(b) == []
        assert canonical_metrics_bytes(a) == canonical_metrics_bytes(b)
        # Provenance itself legitimately differs (worker ids, wall).
        assert a["provenance"]["parallel"] == 1
        assert b["provenance"]["parallel"] == 8

    def test_warm_cache_executes_nothing(self, tmp_path):
        cache = tmp_path / "cache"
        cold_p = tmp_path / "cold.json"
        warm_p = tmp_path / "warm.json"
        run_sweep(_HISTO, _AXES, seeds=(0,), tag=_HISTO_TAG,
                  config=pooled(cache_dir=cache), metrics_path=cold_p)
        warm = run_sweep(_HISTO, _AXES, seeds=(0,), tag=_HISTO_TAG,
                         config=pooled(cache_dir=cache), metrics_path=warm_p)
        assert warm.total_cache_hits == warm.total_points == 2
        a = json.loads(cold_p.read_text())
        b = json.loads(warm_p.read_text())
        assert b["provenance"]["summary"]["executed"] == 0
        assert canonical_metrics_bytes(a) == canonical_metrics_bytes(b)

    def test_interrupted_sweep_resumes_to_identical_artifact(self, tmp_path):
        ref_p = tmp_path / "ref.json"
        res_p = tmp_path / "resumed.json"
        cache = tmp_path / "cache"
        run_sweep(_HISTO, _AXES, tag=_HISTO_TAG, metrics_path=ref_p)
        with pytest.raises(SweepInterrupted) as exc:
            run_sweep(_HISTO, _AXES, tag=_HISTO_TAG,
                      config=pooled(cache_dir=cache, max_executions=1))
        assert exc.value.executed == 1 and exc.value.remaining == 1
        resumed = run_sweep(_HISTO, _AXES, tag=_HISTO_TAG,
                            config=pooled(cache_dir=cache), metrics_path=res_p)
        assert resumed.total_cache_hits == 1  # only the missing point ran
        ref = json.loads(ref_p.read_text())
        res = json.loads(res_p.read_text())
        assert canonical_metrics_bytes(res) == canonical_metrics_bytes(ref)


# ----------------------------------------------------------------------
# App-backed points and the `sweep` CLI target
# ----------------------------------------------------------------------
class TestRunAppPoint:
    def test_returns_float_metric(self):
        value = run_app_point(
            "histogram", "total_time_ns", seed=0,
            nodes=1, scheme="WPs", updates_per_pe=100, buffer_items=16,
            batch=100,
        )
        assert isinstance(value, float) and value > 0

    def test_unknown_app(self):
        with pytest.raises(HarnessError, match="unknown sweep app"):
            run_app_point("nope", "total_time_ns")

    def test_unknown_metric(self):
        with pytest.raises(HarnessError, match="no metric"):
            run_app_point(
                "histogram", "nope", nodes=1, updates_per_pe=100,
                buffer_items=16, batch=100,
            )


class TestSweepCli:
    ARGS = [
        "sweep", "--app", "histogram",
        "--axes", "nodes=1;scheme=WW,WPs",
        "--fixed", "updates_per_pe=200,buffer_items=16,batch=100",
    ]

    def test_sweep_no_cache(self, capsys):
        rc = cli.main(self.ARGS + ["--no-cache"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "total_time_ns (mean)" in out
        assert "0 cache hit(s), 2 executed" in out

    def test_sweep_interrupt_then_resume(self, tmp_path, capsys):
        cached = self.ARGS + ["--cache-dir", str(tmp_path)]
        rc = cli.main(cached + ["--max-points", "1"])
        assert rc == 3
        assert "sweep interrupted" in capsys.readouterr().err
        rc = cli.main(cached)
        assert rc == 0
        assert "1 cache hit(s), 1 executed" in capsys.readouterr().out

    def test_rerun_without_flow_never_serves_flow_results(
        self, tmp_path, capsys
    ):
        """A sweep interrupted under --flow, re-run over the same cache
        without it, must produce what a cacheless run computes: the
        flow-controlled point is keyed apart and never replayed."""
        cached = self.ARGS + ["--cache-dir", str(tmp_path / "cache")]
        flow = ["--flow", "ct_msgs=1,ct_bytes=4096,overload=100000,clear=20000"]
        assert cli.main(cached + flow + ["--max-points", "1"]) == 3
        rerun_p = tmp_path / "rerun.json"
        fresh_p = tmp_path / "fresh.json"
        assert cli.main(cached + ["--metrics-out", str(rerun_p)]) == 0
        assert cli.main(
            self.ARGS + ["--no-cache", "--metrics-out", str(fresh_p)]
        ) == 0
        rerun = json.loads(rerun_p.read_text())
        fresh = json.loads(fresh_p.read_text())
        assert canonical_metrics_bytes(rerun) == canonical_metrics_bytes(fresh)

    @pytest.mark.parametrize("flag", [["--resume"], ["--journal", "x"]])
    def test_removed_resume_flags_rejected(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(self.ARGS + ["--no-cache"] + flag)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_sweep_warm_cache_all_hits(self, tmp_path, capsys):
        cached = self.ARGS + ["--cache-dir", str(tmp_path)]
        assert cli.main(cached) == 0
        capsys.readouterr()
        assert cli.main(cached) == 0
        assert "2 cache hit(s), 0 executed" in capsys.readouterr().out

    def test_sweep_metrics_artifact(self, tmp_path, capsys):
        path = tmp_path / "sweep.json"
        rc = cli.main(self.ARGS + ["--no-cache", "--metrics-out", str(path)])
        assert rc == 0
        payload = json.loads(path.read_text())
        assert validate_metrics_payload(payload) == []
        assert payload["provenance"]["summary"]["n_points"] == 2

    def test_sweep_needs_axes(self, capsys):
        rc = cli.main(["sweep", "--app", "histogram"])
        assert rc == 2
        assert "--axes" in capsys.readouterr().err

    def test_sweep_bad_axes(self, capsys):
        rc = cli.main(["sweep", "--axes", "garbage"])
        assert rc == 2


# ----------------------------------------------------------------------
# Supervision: crash/hang recovery, retries, poison quarantine
# ----------------------------------------------------------------------
def _chaos(seed, *, x):
    """All three failure modes behind one point fn (marker-gated)."""
    if x == 2 and _marker_once("kamikaze"):
        os.kill(os.getpid(), signal.SIGKILL)
    if x == 1 and _marker_once("sleeper"):
        time.sleep(300)
    if x % 3 == 0 and _marker_once(f"flaky-{x}-{seed}"):
        raise ValueError(f"transient failure at x={x}")
    return float(x * x + seed)


@pytest.fixture
def faildir(tmp_path, monkeypatch):
    d = tmp_path / "faults"
    d.mkdir()
    monkeypatch.setenv(_FAILDIR_ENV, str(d))
    return d


class TestWorkerDiedMessage:
    def test_terminal_failure_ships_traceback(self):
        """A worker that dies outside point execution must put a final
        ("died", wid, traceback) message before exiting (satellite 1)."""
        import multiprocessing

        from repro.harness.pool import _WORKER_DIED_EXIT, _worker_main

        mp = multiprocessing.get_context("fork")
        resq = mp.SimpleQueue()
        parent_conn, child_conn = mp.Pipe()
        # specs=None: the first slot lookup raises outside the per-point
        # try/except, driving the terminal-failure path.
        proc = mp.Process(
            target=_worker_main,
            args=(7, _square, None, False, child_conn, resq, []),
        )
        proc.start()
        child_conn.close()
        parent_conn.send(0)
        msg = resq.get()
        proc.join(10)
        assert msg[0] == "died"
        assert msg[1] == 7
        assert "TypeError" in msg[2]
        assert proc.exitcode == _WORKER_DIED_EXIT


class TestSupervision:
    GRID = [{"x": i} for i in range(8)]

    def _config(self, **kw):
        base = dict(parallel=3, retries=2, backoff_base_s=0.01,
                    quarantine=True)
        base.update(kw)
        return PoolConfig(**base)

    def test_sigkilled_worker_is_replaced(self, faildir):
        with _pool_context(self._config()) as ctx:
            outcomes = map_points(_kamikaze, self.GRID)
        assert [o.value for o in outcomes] == [float(i * i) for i in range(8)]
        assert ctx.pool.worker_restarts >= 1
        assert ctx.pool.poisoned == 0
        assert (faildir / "kamikaze").exists()  # the kill really happened

    def test_hung_worker_is_killed_and_point_retried(self, faildir):
        with _pool_context(
            self._config(point_timeout_s=2.0)
        ) as ctx:
            outcomes = map_points(_sleeper, self.GRID)
        assert [o.value for o in outcomes] == [float(i * i) for i in range(8)]
        assert ctx.pool.worker_restarts >= 1
        hung = outcomes[1]
        assert hung.retries >= 1  # the timed-out attempt was charged

    def test_transient_failures_retried_parallel(self, faildir):
        with _pool_context(self._config()) as ctx:
            outcomes = map_points(_flaky, self.GRID)
        assert [o.value for o in outcomes] == [float(i * i) for i in range(8)]
        assert ctx.pool.poisoned == 0
        assert ctx.pool.retried_ok == 8  # every point failed exactly once
        assert ctx.pool.retry_attempts == 8

    def test_transient_failures_retried_serial(self, faildir):
        with _pool_context(self._config(parallel=1)) as ctx:
            outcomes = map_points(_flaky, self.GRID)
        assert [o.value for o in outcomes] == [float(i * i) for i in range(8)]
        assert ctx.pool.retried_ok == 8

    def test_exhausted_point_poisoned_with_conservation(self):
        grid = [{"x": 0}, {"x": 1}, {"x": 2}]
        # Parallel path: every point exhausts its budget and quarantines.
        with _pool_context(self._config(retries=1)):
            par = map_points(_boom, grid[:2], tag="poison-par")
            assert [o.status for o in par] == ["poisoned", "poisoned"]
        with _pool_context(self._config(parallel=1, retries=1)) as ctx:
            outcomes = map_points(
                lambda seed, x: _boom(seed, x=x) if x == 1 else float(x),
                grid,
            )
        assert [o.status for o in outcomes] == ["ok", "poisoned", "ok"]
        poisoned = outcomes[1]
        assert poisoned.value is None
        assert "exploded" in poisoned.error
        assert poisoned.retries == 1
        summary = ctx.pool.provenance_payload()["summary"]
        assert summary["n_points"] == 3
        assert summary["poisoned"] == 1
        assert (
            summary["cache_hits"] + summary["executed"] + summary["poisoned"]
            == summary["n_points"]
        )

    def test_poisoned_point_never_cached(self, tmp_path):
        with _pool_context(
            self._config(parallel=1, retries=1, cache_dir=tmp_path)
        ):
            map_points(_boom, [{"x": 5}])
        assert len(ResultCache(tmp_path)) == 0

    def test_poisoned_point_reexecuted_on_rerun(self, tmp_path, faildir):
        """A re-run over the same cache executes a poisoned point
        again (it is never replayed); once it succeeds it is cached."""
        cache = tmp_path / "cache"
        grid = [{"x": 3}]
        cfg = self._config(parallel=1, retries=0, cache_dir=cache)
        with _pool_context(cfg):
            first = map_points(_flaky, grid)
        assert first[0].status == "poisoned"
        assert len(ResultCache(cache)) == 0
        with _pool_context(cfg) as ctx:
            second = map_points(_flaky, grid)
            assert ctx.pool.executed == 1 and ctx.pool.poisoned == 0
        assert second[0].status == "ok" and second[0].source == "exec"
        assert second[0].value == 9.0
        assert ResultCache(cache).get(second[0].spec.key)["value"] == 9.0

    def test_without_quarantine_serial_failure_fatal_after_retries(self):
        """The serial path retries a failing point, then fails fast."""
        _CALLS.clear()
        cfg = self._config(parallel=1, retries=1, quarantine=False)
        with _pool_context(cfg):
            with pytest.raises(HarnessError, match="exploded"):
                map_points(_counted_boom, [{"x": 0}, {"x": 1}])
        assert _CALLS == [(0, 0), (0, 0)]  # both attempts, then abort

    def test_without_quarantine_failure_still_fatal(self):
        with _pool_context(self._config(retries=1, quarantine=False)):
            with pytest.raises(HarnessError, match="exploded"):
                map_points(_boom, [{"x": 0}, {"x": 1}])

    def test_restart_cap_aborts(self, faildir):
        cfg = self._config(parallel=2, retries=5, max_restarts=0)
        with _pool_context(cfg):
            with pytest.raises(HarnessError, match="gave up"):
                map_points(_kamikaze, self.GRID)

    def test_chaos_artifact_byte_identical_to_clean_serial(
        self, tmp_path, faildir, monkeypatch
    ):
        """The acceptance-criteria invariant: one SIGKILLed worker, one
        hung worker, and transient failures — same canonical bytes as a
        fault-free serial run."""
        chaos_p = tmp_path / "chaos.json"
        clean_p = tmp_path / "clean.json"
        axes = {"x": list(range(8))}
        chaos = run_sweep(
            _chaos, axes, seeds=(0,), tag="chaos-inv",
            metrics_path=chaos_p,
            config=pooled(parallel=3, retries=3, point_timeout_s=2.0),
        )
        monkeypatch.delenv(_FAILDIR_ENV)
        clean = run_sweep(
            _chaos, axes, seeds=(0,), tag="chaos-inv", metrics_path=clean_p,
        )
        assert [c.values for c in chaos.cells] == [
            c.values for c in clean.cells
        ]
        a = json.loads(chaos_p.read_text())
        b = json.loads(clean_p.read_text())
        assert validate_metrics_payload(a) == []
        assert canonical_metrics_bytes(a) == canonical_metrics_bytes(b)
        summary = a["provenance"]["summary"]
        assert summary["poisoned"] == 0
        assert summary["retries"] >= 3  # kill + hang + flaky all charged
        assert summary["restarts"] >= 2

    def test_poisoned_cell_serializes_null_and_validates(self, tmp_path):
        path = tmp_path / "poisoned.json"
        result = run_sweep(
            _boom, {"x": [0]}, seeds=(0,), tag="poison-artifact",
            metrics_path=path, config=pooled(retries=1),
        )
        import math

        assert math.isnan(result.cells[0].values[0])
        assert math.isnan(result.cells[0].mean)
        payload = json.loads(path.read_text())
        assert validate_metrics_payload(payload) == []
        cell = payload["sweep"]["cells"][0]
        assert cell["values"] == [None]
        assert cell["mean"] is None
        point = payload["provenance"]["points"][0]
        assert point["status"] == "poisoned"
        assert "exploded" in point["error"]


# ----------------------------------------------------------------------
# Interrupt semantics: graceful drain, parent crash, resume from cache
# ----------------------------------------------------------------------
_DRAIN_PID_ENV = "REPRO_TEST_DRAIN_PID"


def _signals_parent(seed, *, x):
    # Point 2 asks the process running the sweep to drain; in-process
    # that is this very process, in a worker it is the parent.
    if x == 2:
        os.kill(int(os.environ[_DRAIN_PID_ENV]), signal.SIGINT)
    return float(x * x + seed)


class TestDrain:
    @pytest.mark.parametrize("parallel", [1, 2])
    def test_drain_records_completed_points(
        self, tmp_path, monkeypatch, parallel
    ):
        """A drained sweep counts and records every point it completed:
        the exception, the cache and the provenance agree."""
        monkeypatch.setenv(_DRAIN_PID_ENV, str(os.getpid()))
        cache = tmp_path / "cache"
        cfg = PoolConfig(
            parallel=parallel, cache_dir=cache, drain_signals=True
        )
        with _pool_context(cfg) as ctx:
            with pytest.raises(SweepInterrupted) as info:
                map_points(_signals_parent, [{"x": i} for i in range(8)])
        exc = info.value
        assert exc.reason == "signal"
        assert exc.executed == len(ResultCache(cache)) == ctx.pool.executed
        assert exc.executed >= 3  # points 0-2 finished before the drain
        assert exc.remaining == 8 - exc.executed > 0
        # Every dispatched point finished, so the completed points are
        # a grid prefix, recorded in grid order.
        assert [p["index"] for p in ctx.pool.provenance] == list(
            range(exc.executed)
        )


_SRC = str(Path(__file__).resolve().parents[2] / "src")


def _sweep_argv(cache, *extra):
    import sys

    return [
        sys.executable, "-m", "repro.harness", "sweep",
        "--app", "histogram",
        "--axes", "nodes=1,2;scheme=WW,WPs",
        "--fixed", "updates_per_pe=15000,buffer_items=16,batch=100",
        "--seeds", "0,1",
        "--parallel", "2",
        "--cache-dir", str(cache),
        *extra,
    ]


def _live_group_members(pgid):
    """Pids of the non-zombie processes in process group ``pgid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue  # exited while we looked
        # After the parenthesised command: state, ppid, pgrp, ...
        state, _ppid, pgrp = stat[stat.rindex(")") + 2:].split()[:3]
        if int(pgrp) == pgid and state != "Z":
            members.append(int(entry))
    return members


def _interrupt_mid_sweep(tmp_path, signum):
    """Start the sweep CLI in its own session, signal it once >=2 points
    are cached, and return (returncode, cache_dir, pgid) — the pgid
    names the sweep's process group, workers included."""
    import subprocess

    cache = tmp_path / "cache"
    env = dict(os.environ, PYTHONPATH=_SRC)
    proc = subprocess.Popen(
        _sweep_argv(cache),
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    try:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if proc.poll() is not None:
                pytest.fail(
                    f"sweep finished (rc {proc.returncode}) before the "
                    f"signal — grid too fast for this host"
                )
            if len(ResultCache(cache)) >= 2:
                break
            time.sleep(0.05)
        else:
            pytest.fail("cache never accumulated 2 points")
        proc.send_signal(signum)
        rc = proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return rc, cache, proc.pid


@pytest.mark.slow
class TestInterruptSemantics:
    def _reference_artifact(self, tmp_path):
        ref_p = tmp_path / "ref.json"
        rc = cli.main(
            _sweep_argv(tmp_path / "ref-cache", "--metrics-out", str(ref_p))[3:]
        )
        assert rc == 0
        return json.loads(ref_p.read_text())

    def test_sigint_drains_to_exit_3_then_resume_matches(self, tmp_path):
        rc, cache, _ = _interrupt_mid_sweep(tmp_path, signal.SIGINT)
        assert rc == 3  # graceful drain, not the default 130
        cached = len(ResultCache(cache))  # in-flight points finished too
        assert 2 <= cached < 8

        res_p = tmp_path / "resumed.json"
        rc = cli.main(_sweep_argv(cache, "--metrics-out", str(res_p))[3:])
        assert rc == 0
        resumed = json.loads(res_p.read_text())
        summary = resumed["provenance"]["summary"]
        # Only the points the drained run never completed were executed.
        assert summary["cache_hits"] == cached
        assert summary["executed"] == 8 - cached
        ref = self._reference_artifact(tmp_path)
        assert canonical_metrics_bytes(resumed) == canonical_metrics_bytes(ref)

    def test_parent_sigkill_resumes_from_cache(self, tmp_path):
        rc, cache, _ = _interrupt_mid_sweep(tmp_path, signal.SIGKILL)
        assert rc == -signal.SIGKILL
        cached = set(ResultCache(cache).keys())  # only the parent writes
        assert len(cached) >= 2

        res_p = tmp_path / "resumed.json"
        rc = cli.main(_sweep_argv(cache, "--metrics-out", str(res_p))[3:])
        assert rc == 0
        resumed = json.loads(res_p.read_text())
        # Points cached before the kill are served from the cache, the
        # rest executed — never re-running what the dead parent completed.
        by_key = {p["key"]: p for p in resumed["provenance"]["points"]}
        for key in cached:
            assert by_key[key]["source"] == "cache"
            assert by_key[key]["cache_hit"]
        summary = resumed["provenance"]["summary"]
        assert summary["executed"] == 8 - summary["cache_hits"]
        ref = self._reference_artifact(tmp_path)
        assert canonical_metrics_bytes(resumed) == canonical_metrics_bytes(ref)

    @pytest.mark.skipif(
        not Path("/proc/self/stat").exists(), reason="reads Linux /proc"
    )
    def test_parent_sigkill_leaves_no_orphan_workers(self, tmp_path):
        """Pool workers notice a SIGKILLed parent and exit on their own:
        they must not hold their own task pipe open (no EOF otherwise)
        nor keep the parent's SIGTERM drain handler."""
        rc, _, pgid = _interrupt_mid_sweep(tmp_path, signal.SIGKILL)
        assert rc == -signal.SIGKILL
        try:
            # A worker mid-point finishes it first (well under a second
            # at this grid size), then sees EOF on its task pipe.
            deadline = time.monotonic() + 10
            while _live_group_members(pgid) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert _live_group_members(pgid) == []
        finally:
            try:
                os.killpg(pgid, signal.SIGKILL)
            except ProcessLookupError:
                pass
