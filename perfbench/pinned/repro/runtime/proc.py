"""OS process: a group of worker PEs sharing an address space.

In SMP mode a process additionally owns a comm thread and a shared-state
dictionary — the simulated shared heap in which the PP scheme keeps its
process-level aggregation buffers.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.commthread import CommThread
    from repro.runtime.system import RuntimeSystem


class Process:
    """One OS process on a node.

    Attributes
    ----------
    pid:
        Global process id.
    shared:
        The process's shared heap: arbitrary keyed state visible to all
        of its workers (used by PP buffers and by tests).
    commthread:
        The dedicated comm thread, or ``None`` in non-SMP mode.
    """

    __slots__ = (
        "rt", "pid", "shared", "commthread", "receiver_policy", "_rr", "alive"
    )

    def __init__(self, rt: "RuntimeSystem", pid: int) -> None:
        self.rt = rt
        self.pid = pid
        self.shared: Dict[Any, Any] = {}
        self.commthread: Optional["CommThread"] = None
        #: "round_robin" (default) spreads process-addressed messages
        #: over the PEs; "fixed" pins them to the first PE (a dedicated
        #: receiver chare) — an ablation knob for receive-side hotspots.
        self.receiver_policy = "round_robin"
        self._rr = 0
        #: Cleared when the crash fabric kills this process (see
        #: ``RuntimeSystem._crash_process``); authoritative liveness is
        #: ``rt.dead_procs``, this mirror is for cheap local checks.
        self.alive = True

    @property
    def node_id(self) -> int:
        """Physical node hosting this process."""
        return self.rt.machine.node_of_process(self.pid)

    @property
    def workers(self) -> range:
        """Global worker ids belonging to this process."""
        return self.rt.machine.workers_of_process(self.pid)

    def next_receiver(self) -> int:
        """Pick the PE that will handle the next process-addressed message.

        Under the default ``round_robin`` policy receive-side grouping
        work (WPs/PP destination sort) is spread over the process's PEs
        rather than hot-spotted on one; ``fixed`` pins it to the first
        PE, modelling a single dedicated receiver chare. The paper's
        TramLib receiver chare plays this role.
        """
        workers = self.rt.machine.workers_of_process(self.pid)
        if self.receiver_policy == "fixed":
            return workers[0]
        wid = workers[self._rr % len(workers)]
        self._rr += 1
        return wid

    def all_workers_idle(self) -> bool:
        """Whether every PE of this process is idle with empty queues."""
        for wid in self.workers:
            w = self.rt.worker(wid)
            if w.busy or w.queued:
                return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Process {self.pid} node={self.node_id}>"
