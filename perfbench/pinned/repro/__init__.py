"""repro — reproduction of *Shared Memory-Aware Latency-Sensitive Message
Aggregation for Fine-Grained Communication* (SC 2024).

The package provides:

* :mod:`repro.sim` — deterministic discrete-event engine (the substrate
  substituting for the paper's Delta supercomputer; see DESIGN.md §2);
* :mod:`repro.machine` — cluster topology and nanosecond cost model;
* :mod:`repro.network` — alpha–beta wire model with per-node NICs;
* :mod:`repro.runtime` — Charm++-like SMP runtime (worker PEs, comm
  threads, transport, chares);
* :mod:`repro.tram` — **TramLib**, the paper's contribution: the WW,
  WPs, WsP and PP aggregation schemes plus flush policies and stats;
* :mod:`repro.obs` — stage-attributed latency spans, the metrics
  registry and per-run snapshots behind ``--metrics-out``;
* :mod:`repro.faults` — seeded fault injection (message drop / dup /
  corrupt / reorder, NIC degradation, comm-thread stalls) paired with
  the runtime's ack/retransmit reliable-delivery layer;
* :mod:`repro.flow` — credit-based flow control: bounded comm-thread /
  NIC occupancy, backpressure into TramLib source buffers, overload
  escalation and (opt-in) per-destination load shedding;
* :mod:`repro.analysis` — the paper's §III-C closed-form cost analysis;
* :mod:`repro.apps` — PingAck, histogram, index-gather, SSSP and PHOLD;
* :mod:`repro.harness` — per-figure experiment harness and CLI.

Quickstart
----------
>>> from repro import RuntimeSystem, delta_machine
>>> rt = RuntimeSystem(delta_machine(nodes=2, processes_per_node=2,
...                                  workers_per_process=2))
>>> rt.machine.total_workers
8
"""

from repro.errors import (
    ConfigError,
    DeliveryError,
    FaultInjectionError,
    FlowControlError,
    HarnessError,
    QuiescenceError,
    ReproError,
    RetryExhaustedError,
    SchedulingError,
    SimulationError,
)
from repro.faults import FaultPlan, FaultSession, FaultWindow
from repro.flow import FlowConfig, FlowSession
from repro.machine import (
    CostModel,
    MachineConfig,
    delta_costs,
    delta_machine,
    nonsmp_machine,
    small_test_machine,
)
from repro.obs import ObsConfig, ObsSession
from repro.runtime import (
    Chare,
    ExecContext,
    QDCounter,
    ReliabilityConfig,
    RuntimeSystem,
)
from repro.sim import MS, NS, SEC, US, Engine, RngStreams, Tracer, fmt_time

__version__ = "1.0.0"

__all__ = [
    "Chare",
    "ConfigError",
    "CostModel",
    "DeliveryError",
    "Engine",
    "ExecContext",
    "FaultInjectionError",
    "FaultPlan",
    "FaultSession",
    "FaultWindow",
    "FlowConfig",
    "FlowControlError",
    "FlowSession",
    "HarnessError",
    "MS",
    "MachineConfig",
    "NS",
    "ObsConfig",
    "ObsSession",
    "QDCounter",
    "QuiescenceError",
    "ReliabilityConfig",
    "ReproError",
    "RetryExhaustedError",
    "RngStreams",
    "RuntimeSystem",
    "SEC",
    "SchedulingError",
    "SimulationError",
    "Tracer",
    "US",
    "__version__",
    "delta_costs",
    "delta_machine",
    "fmt_time",
    "nonsmp_machine",
    "small_test_machine",
]
