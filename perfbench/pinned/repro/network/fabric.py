"""Wire model between nodes (and between processes within a node).

The paper targets modern flat/fat-tree topologies where topology-aware
multi-hop routing buys little, so the fabric is distance-insensitive:
every node pair has the same ``alpha_inter`` latency. Intra-node
inter-process transfers use ``alpha_intra``. The model is deliberately a
pure-latency pipe; *serialization* (bandwidth contention) is modelled at
the NICs, which is where it physically occurs on such fabrics.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.machine.costs import CostModel
from repro.machine.topology import MachineConfig


@dataclass(frozen=True)
class Fabric:
    """Latency oracle for the interconnect.

    Parameters
    ----------
    machine:
        Topology, used to classify node locality.
    costs:
        Cost model supplying ``alpha_inter_ns`` / ``alpha_intra_ns``.
    """

    machine: MachineConfig
    costs: CostModel

    def latency_between_processes(self, src_process: int, dst_process: int) -> float:
        """One-way latency between two distinct processes (ns)."""
        same_node = self.machine.node_of_process(src_process) == (
            self.machine.node_of_process(dst_process)
        )
        return self.costs.wire_latency_ns(same_node)

    def latency_between_nodes(self, src_node: int, dst_node: int) -> float:
        """One-way latency between two nodes (ns); intra if equal."""
        return self.costs.wire_latency_ns(src_node == dst_node)
