"""Tests for the generic sweep runner."""

import pytest

from repro.errors import HarnessError
from repro.harness.sweep import run_sweep
from repro.runconfig import PoolConfig, RunConfig


class TestRunSweep:
    def test_cartesian_grid(self):
        calls = []

        def fn(a, b, seed):
            calls.append((a, b, seed))
            return float(a * 10 + b)

        res = run_sweep(fn, {"a": [1, 2], "b": [3, 4]})
        assert len(res.cells) == 4
        assert res.cell(a=2, b=3).mean == 23.0
        assert len(calls) == 4

    def test_seed_replication_error_bars(self):
        def fn(x, seed):
            return float(x + seed)

        res = run_sweep(fn, {"x": [10]}, seeds=[0, 1, 2])
        cell = res.cell(x=10)
        assert cell.values == (10.0, 11.0, 12.0)
        assert cell.mean == 11.0
        assert cell.std == 1.0

    def test_table_renders(self):
        res = run_sweep(lambda x, seed: float(x), {"x": [1, 2]},
                        metric="time_ms")
        table = res.to_table()
        assert "time_ms" in table
        assert len(table.splitlines()) == 4

    def test_table_has_execution_columns(self):
        res = run_sweep(lambda x, seed: float(x), {"x": [1, 2]})
        table = res.to_table()
        assert "wall (s)" in table
        assert "cache" in table
        assert "0/1" in table  # no cache configured: zero hits per cell

    def test_cells_carry_wall_clock(self):
        res = run_sweep(lambda x, seed: float(x), {"x": [1]}, seeds=[0, 1])
        cell = res.cell(x=1)
        assert len(cell.wall_s) == len(cell.values) == 2
        assert all(w >= 0.0 for w in cell.wall_s)
        assert cell.cache_hits == 0
        assert res.total_points == 2
        assert res.total_cache_hits == 0

    def test_parallel_matches_serial(self):
        def fn(a, seed):
            return float(a * 100 + seed)

        serial = run_sweep(fn, {"a": [1, 2, 3]}, seeds=[0, 1])
        par = run_sweep(fn, {"a": [1, 2, 3]}, seeds=[0, 1],
                        config=RunConfig(pool=PoolConfig(parallel=3)))
        assert [c.values for c in par.cells] == [c.values for c in serial.cells]

    def test_missing_cell_raises(self):
        res = run_sweep(lambda x, seed: float(x), {"x": [1]})
        with pytest.raises(KeyError):
            res.cell(x=99)

    def test_validation(self):
        with pytest.raises(HarnessError):
            run_sweep(lambda seed: 0.0, {})
        with pytest.raises(HarnessError):
            run_sweep(lambda x, seed: 0.0, {"x": [1]}, seeds=[])

    def test_with_real_app(self):
        """End-to-end: sweep histogram buffer sizes with error bars."""
        from repro.apps import run_histogram
        from repro.machine import MachineConfig

        machine = MachineConfig(2, 2, 2)

        def metric(g, seed):
            return run_histogram(
                machine, "WPs", updates_per_pe=400, buffer_items=g,
                seed=seed,
            ).total_time_ns

        res = run_sweep(metric, {"g": [8, 64]}, seeds=[0, 1],
                        metric="time_ns")
        assert res.cell(g=8).mean > res.cell(g=64).mean
        assert res.cell(g=8).std >= 0.0
