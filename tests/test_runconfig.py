"""RunConfig normalisation and the one ambient RunContext stack.

Includes the composition perfbench relies on: a FaultSession and a
FlowSession built up front and entered through one ExitStack, inside a
context with observability on.
"""

from contextlib import ExitStack

import numpy as np

from repro.faults import FaultPlan, FaultSession
from repro.flow import FlowConfig, FlowSession
from repro.machine import MachineConfig
from repro.obs import ObsConfig, TimelineConfig
from repro.runconfig import PoolConfig, RunConfig, RunContext, active
from repro.runtime import ReliabilityConfig, RuntimeSystem
from repro.tram import TramConfig, make_scheme

MACHINE = MachineConfig(2, 2, 2)
PLAN = FaultPlan.parse("drop=0.01,dup=0.005")
FLOW = FlowConfig.parse("ct_msgs=8,ct_bytes=65536,overload=100000,clear=20000")


def _run(rt):
    tram = make_scheme(
        "WPs", rt, TramConfig(buffer_items=16),
        deliver_bulk=lambda ctx, w, n, si, sc: None,
    )
    W = rt.machine.total_workers

    def driver(ctx):
        rng = rt.rng.stream(f"rc/{ctx.worker.wid}")
        counts = np.bincount(rng.integers(0, W, 100), minlength=W)
        tram.insert_bulk(ctx, counts)
        tram.flush_when_done(ctx)

    for w in range(W):
        rt.post(w, driver)
    rt.run()


class TestNormalisation:
    def test_defaults_are_clean(self):
        cfg = RunConfig()
        assert (cfg.faults, cfg.reliability, cfg.flow, cfg.obs) == (
            None, None, None, None,
        )
        assert cfg.pool == PoolConfig()

    def test_faults_bring_default_reliability(self):
        assert RunConfig(faults=PLAN).reliability == ReliabilityConfig()
        assert RunConfig(faults=PLAN, reliability=None).reliability is None

    def test_spec_strings_parse(self):
        cfg = RunConfig(faults="drop=0.01,dup=0.005", flow="ct_msgs=8")
        assert cfg.faults == PLAN
        assert cfg.flow == FlowConfig(ct_max_msgs=8)

    def test_noop_and_disabled_become_none(self):
        cfg = RunConfig(
            faults=FaultPlan(),
            flow=FlowConfig(enabled=False),
            reliability=ReliabilityConfig(enabled=False),
        )
        assert cfg == RunConfig()

    def test_timeline_only_when_enabled(self):
        assert RunConfig(obs=ObsConfig()).timeline is None
        off = ObsConfig(timeline=TimelineConfig(enabled=False))
        assert RunConfig(obs=off).timeline is None
        tl = TimelineConfig(cadence_ns=1_000.0)
        assert RunConfig(obs=ObsConfig(timeline=tl)).timeline == tl

    def test_artifact_config_block(self):
        tl = TimelineConfig(cadence_ns=1_000.0)
        cfg = RunConfig(faults=PLAN, flow=FLOW, obs=ObsConfig(timeline=tl))
        block = cfg.artifact_config()
        assert list(block) == ["faults", "flow", "timeline"]
        assert block["faults"]["drop"] == 0.01
        assert block["flow"]["ct_max_msgs"] == 8
        assert block["timeline"]["cadence_ns"] == 1_000.0
        assert RunConfig(obs=ObsConfig()).artifact_config() == {}


class TestComposition:
    def test_exitstack_of_sessions_inside_observed_context(self):
        """perfbench's pattern: both sessions built first, entered through
        one ExitStack, inside a context with obs on."""
        outer_cfg = RunConfig(obs=ObsConfig())
        with RunContext(outer_cfg) as outer:
            sessions = [FaultSession(PLAN), FlowSession(FLOW)]
            with ExitStack() as stack:
                for session in sessions:
                    stack.enter_context(session)
                rt = RuntimeSystem(MACHINE, seed=0)
                assert rt.faults is not None
                assert rt.reliable is not None
                assert rt.flow is not None and rt.flow.config == FLOW
                assert rt.obs_enabled
                _run(rt)
            assert active() is outer
            assert outer.config == outer_cfg
            assert RuntimeSystem(MACHINE, seed=0).faults is None
        assert active() is None
        assert len(outer.records) == 1
        snap = outer.records[0]
        assert snap["faults"] is not None and snap["flow"] is not None

    def test_exitstack_of_sessions_without_outer_context(self):
        with ExitStack() as stack:
            for session in (FaultSession(PLAN), FlowSession(FLOW)):
                stack.enter_context(session)
            rt = RuntimeSystem(MACHINE, seed=0)
            assert rt.faults is not None and rt.reliable is not None
            assert rt.flow is not None
            assert not rt.obs_enabled
        assert active() is None

    def test_inner_override_replaces_only_its_field(self):
        base = RunConfig(faults="drop=0.5", flow=FLOW)
        other = FaultPlan.parse("dup=0.1")
        with RunContext(base):
            with FaultSession(other, reliability=None) as inner:
                assert inner.config.faults == other
                assert inner.config.reliability is None
                assert inner.config.flow == FLOW
                rt = RuntimeSystem(MACHINE, seed=0)
                assert rt.reliable is None and rt.flow is not None
            assert active().config == base

    def test_noop_plan_session_keeps_reliability(self):
        with FaultSession(FaultPlan()) as session:
            assert session.config.faults is None
            rt = RuntimeSystem(MACHINE, seed=0)
            assert rt.faults is None and rt.reliable is not None

    def test_explicit_kwargs_override_the_context(self):
        with RunContext(RunConfig(faults=PLAN, flow=FLOW)):
            rt = RuntimeSystem(
                MACHINE, seed=0, faults=FaultPlan(),
                reliability=ReliabilityConfig(enabled=False),
                flow=FlowConfig(enabled=False),
            )
        assert rt.faults is None and rt.reliable is None and rt.flow is None

    def test_sessions_share_the_outer_pool_state(self):
        with RunContext(RunConfig(pool=PoolConfig(parallel=3))) as outer:
            with FaultSession(PLAN) as inner:
                assert inner.pool is outer.pool
                assert inner.pool.config.parallel == 3
