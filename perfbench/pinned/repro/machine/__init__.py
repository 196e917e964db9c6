"""Machine model: cluster topology and software/hardware cost constants.

The paper's testbed (NCSA Delta: dual-socket 128-core AMD EPYC nodes, 8
processes per node with 8 worker cores each plus one comm-thread core)
is captured as a :class:`~repro.machine.topology.MachineConfig` preset
plus a :class:`~repro.machine.costs.CostModel` with Delta-shaped
constants (see DESIGN.md §4).
"""

from repro.machine.costs import CostModel
from repro.machine.presets import (
    delta_costs,
    delta_machine,
    nonsmp_machine,
    small_test_machine,
)
from repro.machine.topology import MachineConfig

__all__ = [
    "CostModel",
    "MachineConfig",
    "delta_costs",
    "delta_machine",
    "nonsmp_machine",
    "small_test_machine",
]
