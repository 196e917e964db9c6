"""Tests for the experiment harness and CLI (quick profile)."""

import dataclasses
import json

import pytest

from repro.errors import HarnessError
from repro.faults import FaultPlan, FaultSession
from repro.harness import FIGURES, FigureData, Series, run_figure
from repro.harness.artifact import validate_metrics_payload
from repro.harness.cli import main
from repro.harness.pool import run_app_point


class TestFigureData:
    def test_to_table_shape(self):
        data = FigureData(
            fig_id="x", title="t", xlabel="nodes", ylabel="ms",
            x=[1, 2], series=[Series("a", [0.1, 0.2]), Series("b", [0.3, 0.4])],
        )
        table = data.to_table()
        lines = table.splitlines()
        assert lines[0].split() == ["nodes", "a", "b"]
        assert len(lines) == 4

    def test_series_by_name(self):
        data = FigureData(
            fig_id="x", title="t", xlabel="n", ylabel="y",
            x=[1], series=[Series("a", [1.0])],
        )
        assert data.series_by_name("a").y == [1.0]
        with pytest.raises(KeyError):
            data.series_by_name("zzz")

    def test_render_includes_expectation(self):
        data = FigureData(
            fig_id="figX", title="T", xlabel="n", ylabel="y",
            x=[1], series=[Series("a", [1.0])], expected="a wins",
        )
        out = data.render()
        assert "figX" in out and "a wins" in out


class TestRegistry:
    def test_all_paper_figures_present(self):
        for fig in ("fig1", "fig3", "fig8", "fig9", "fig10", "fig11",
                    "fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
                    "fig18", "tabA", "tabB", "extA", "extB"):
            assert fig in FIGURES

    def test_unknown_figure_raises(self):
        with pytest.raises(HarnessError):
            run_figure("fig99")

    def test_bad_profile_raises(self):
        with pytest.raises(HarnessError):
            run_figure("fig1", profile="huge")


class TestQuickFigures:
    """Each quick-profile figure regenerates and shows the paper shape."""

    def test_fig1_shape(self):
        data = run_figure("fig1", "quick")
        y = data.series_by_name("one_way_us").y
        assert y[0] == pytest.approx(y[1], rel=0.15)  # flat for small
        assert y[-1] > 10 * y[0]  # bandwidth-bound for large

    def test_fig3_shape(self):
        data = run_figure("fig3", "quick")
        y = data.series_by_name("time_ms").y
        nonsmp, smp1 = y[0], y[1]
        assert smp1 > 1.5 * nonsmp
        assert y[1] > y[2] > y[3] * 0.99  # more processes help

    def test_fig11_ww_collapse(self):
        data = run_figure("fig11", "quick")
        ww = data.series_by_name("WW").y
        wps = data.series_by_name("WPs").y
        assert ww[-1] > 1.3 * wps[-1]

    def test_fig12_latency_ordering(self):
        data = run_figure("fig12", "quick")
        at_largest = {s.name: s.y[-1] for s in data.series}
        assert at_largest["PP"] < at_largest["WPs"] < at_largest["WW"]

    def test_tabB_bounds_hold(self):
        data = run_figure("tabB", "quick")
        lower = data.series_by_name("lower_bound").y
        measured = data.series_by_name("measured").y
        upper = data.series_by_name("upper_bound").y
        for lo, m, hi in zip(lower, measured, upper):
            assert lo <= m <= hi

    def test_tabA_measured_within_bound(self):
        data = run_figure("tabA", "quick")
        measured = data.series_by_name("measured").y
        analytic = data.series_by_name("analytic_max").y
        for m, a in zip(measured, analytic):
            assert m <= a

    def test_extA_message_hierarchy(self):
        data = run_figure("extA", "quick")
        msgs = dict(zip(data.x, data.series_by_name("messages").y))
        assert msgs["WW"] > msgs["WPs"] > msgs["WNs"]
        assert msgs["PP"] > msgs["NN"]

    def test_extB_routing_tradeoff(self):
        data = run_figure("extB", "quick")
        bufs = dict(zip(data.x, data.series_by_name("buffers").y))
        lat = dict(zip(data.x, data.series_by_name("latency_us").y))
        assert bufs["R2D"] < bufs["WPs"]
        assert lat["R2D"] > lat["WPs"]


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig9" in out

    def test_run_single(self, capsys, tmp_path):
        assert main(["fig1", "--profile", "quick", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "fig1" in out
        assert (tmp_path / "fig1.txt").exists()

    def test_unknown_target(self, capsys):
        assert main(["fig99"]) == 2


class TestCliRunConfig:
    """The CLI builds one RunConfig and every run target honours it;
    a flag a target cannot honour is an error, never dropped."""

    SWEEP = [
        "sweep", "--app", "histogram", "--axes", "nodes=2;scheme=WW",
        "--fixed", "updates_per_pe=200,buffer_items=16,batch=100",
        "--no-cache",
    ]
    POINT = dict(nodes=2, scheme="WW", updates_per_pe=200, buffer_items=16,
                 batch=100)

    def _sweep_value(self, tmp_path, *extra):
        path = tmp_path / "sweep.json"
        assert main(self.SWEEP + ["--metrics-out", str(path), *extra]) == 0
        payload = json.loads(path.read_text())
        assert validate_metrics_payload(payload) == []
        return payload["sweep"]["cells"][0]["mean"], payload["config"]

    def test_sweep_runs_under_faults(self, tmp_path, capsys):
        value, config = self._sweep_value(tmp_path, "--faults", "drop=0.05")
        plan = FaultPlan.parse("drop=0.05")
        with FaultSession(plan):
            faulty = run_app_point("histogram", "total_time_ns", **self.POINT)
        clean = run_app_point("histogram", "total_time_ns", **self.POINT)
        assert value == faulty
        assert value != clean
        assert config["faults"] == json.loads(
            json.dumps(dataclasses.asdict(plan))
        )

    def test_clean_sweep_config_has_no_faults(self, tmp_path, capsys):
        _, config = self._sweep_value(tmp_path)
        assert "faults" not in config

    def test_validate_takes_the_whole_config(self, monkeypatch, tmp_path,
                                             capsys):
        import repro.harness.validate as validate_mod

        seen = {}

        def fake(profile, config):
            seen["config"] = config
            return []

        monkeypatch.setattr(validate_mod, "validate_reproduction", fake)
        rc = main([
            "validate", "--profile", "quick", "--fresh",
            "--cache-dir", str(tmp_path), "--faults", "drop=0.01",
            "--flow", "ct_msgs=8", "--timeline", "--status",
            "--status-json", str(tmp_path / "s.json"),
        ])
        assert rc == 0
        config = seen["config"]
        assert config.pool.cache_read is False  # --fresh skips the cache
        assert config.pool.cache_dir == tmp_path
        assert config.faults == FaultPlan.parse("drop=0.01")
        assert config.flow.ct_max_msgs == 8
        assert config.timeline is not None
        assert config.pool.status is True
        assert config.pool.status_json == tmp_path / "s.json"

    @pytest.mark.parametrize("argv, flag", [
        (["validate", "--metrics-out", "m.json"], "--metrics-out"),
        (["report", "--faults", "drop=0.1"], "--faults"),
        (["fig1", "--max-points", "3"], "--max-points"),
        (["sweep", "--axes", "x=1", "--profile", "quick"], "--profile"),
        (["list", "--parallel", "2"], "--parallel"),
        (["validate-metrics", "m.json", "--flow", "ct_msgs=8"], "--flow"),
    ])
    def test_unhonoured_flag_exits_2(self, argv, flag, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "does not take" in err and flag in err


class TestReport:
    def test_write_report_selected_figures(self, tmp_path):
        from repro.harness.report import write_report

        path = write_report(
            tmp_path / "REPORT.md", profile="quick",
            figures=["fig1", "tabB"],
        )
        text = path.read_text()
        assert "# Reproduction report" in text
        assert "fig1" in text and "tabB" in text
        assert "Paper expectation" in text
        assert "```text" in text

    def test_cli_report_target(self, capsys, tmp_path, monkeypatch):
        import repro.harness.report as report_mod

        called = {}

        def fake(path, profile):
            called["path"] = path
            called["profile"] = profile
            path = tmp_path / "REPORT.md"
            path.write_text("stub")
            return path

        monkeypatch.setattr(report_mod, "write_report",
                            lambda path, profile: fake(path, profile))
        assert main(["report", "--profile", "quick",
                     "--out", str(tmp_path)]) == 0
        assert called["profile"] == "quick"
