"""Physical node: processes plus its NIC(s)."""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.network.nic import Nic
    from repro.runtime.system import RuntimeSystem


class Node:
    """One physical host in the simulated cluster.

    Attributes
    ----------
    node_id:
        Global node index.
    nics:
        The node's network interfaces; off-node traffic serializes per
        NIC, and processes map to NICs round-robin.
    """

    __slots__ = ("rt", "node_id", "nics")

    def __init__(self, rt: "RuntimeSystem", node_id: int, nics) -> None:
        self.rt = rt
        self.node_id = node_id
        self.nics = list(nics)

    @property
    def nic(self) -> "Nic":
        """The node's first NIC (single-NIC shorthand)."""
        return self.nics[0]

    def nic_for_process(self, pid: int) -> "Nic":
        """The NIC serving process ``pid`` (round-robin mapping)."""
        local = pid - self.rt.machine.processes_of_node(self.node_id).start
        return self.nics[local % len(self.nics)]

    @property
    def processes(self) -> range:
        """Global process ids hosted on this node."""
        return self.rt.machine.processes_of_node(self.node_id)

    @property
    def workers(self) -> range:
        """Global worker ids hosted on this node."""
        return self.rt.machine.workers_of_node(self.node_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Node {self.node_id}>"
