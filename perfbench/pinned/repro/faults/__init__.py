"""Fault-injection fabric (see ``docs/robustness.md``).

Declarative, seeded, deterministic faults for the simulated transport:
message drop / duplication / corruption / bounded reordering on the
inter-node wire, plus scripted NIC degradation and comm-thread stalls.
Off by default; a runtime without a plan pays one ``is None`` check.
"""

from repro.faults.context import (
    FaultSession,
    active_fault_plan,
    active_fault_session,
)
from repro.faults.injector import FaultInjector, FaultStats
from repro.faults.plan import (
    FOREVER,
    KINDS,
    PROCESS_KINDS,
    FaultPlan,
    FaultWindow,
)

__all__ = [
    "FaultPlan",
    "FaultWindow",
    "FaultInjector",
    "FaultStats",
    "FaultSession",
    "active_fault_plan",
    "active_fault_session",
    "KINDS",
    "PROCESS_KINDS",
    "FOREVER",
]
