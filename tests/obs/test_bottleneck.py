"""Acceptance: the emitted JSON names the same bottleneck as the
UtilizationReport for comm-thread-saturated and NIC-saturated configs."""

import json

from repro.apps import run_histogram
from repro.harness.artifact import (
    build_metrics_payload,
    validate_metrics_payload,
    write_metrics_json,
)
from repro.machine import MachineConfig
from repro.machine.costs import CostModel
from repro.obs import ObsConfig
from repro.runconfig import RunConfig, RunContext


def _roundtrip(tmp_path, session, target):
    payload = build_metrics_payload(
        target=target, profile="test", runs=session.records,
    )
    path = write_metrics_json(tmp_path / f"{target}.json", payload)
    loaded = json.loads(path.read_text())
    assert validate_metrics_payload(loaded) == []
    return loaded


class TestBottleneckVerdict:
    def test_commthread_saturated(self, tmp_path):
        # One comm thread serving 8 workers of fine-grained WW traffic:
        # the paper's SecIII-A serialization regime.
        with RunContext(RunConfig(obs=ObsConfig())) as session:
            run_histogram(
                MachineConfig(2, 1, 8), "WW", updates_per_pe=2000,
                buffer_items=8, batch=500,
            )
        loaded = _roundtrip(tmp_path, session, "comm_saturated")
        verdicts = {
            r["utilization"]["bottleneck"] for r in loaded["runs"]
        }
        # JSON verdict is byte-for-byte the report's verdict...
        for run, snap in zip(loaded["runs"], session.records):
            assert run["utilization"]["bottleneck"] == (
                snap["utilization"]["bottleneck"]
            )
        # ...and the regime is diagnosed correctly.
        assert verdicts == {"commthreads"}
        assert loaded["summary"]["bottleneck"] == "commthreads"

    def test_nic_saturated(self, tmp_path):
        costs = CostModel().replace(
            comm_msg_ns=20.0, comm_byte_ns=0.0,
            nic_msg_ns=2000.0, beta_ns_per_byte=2.0,
        )
        with RunContext(RunConfig(obs=ObsConfig())) as session:
            run_histogram(
                MachineConfig(2, 2, 2), "WPs", updates_per_pe=2000,
                buffer_items=16, batch=500, costs=costs,
            )
        loaded = _roundtrip(tmp_path, session, "nic_saturated")
        for run, snap in zip(loaded["runs"], session.records):
            assert run["utilization"]["bottleneck"] == (
                snap["utilization"]["bottleneck"]
            )
        assert loaded["summary"]["bottleneck"].startswith("nic")
