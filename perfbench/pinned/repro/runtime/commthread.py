"""The dedicated communication thread of an SMP process.

Charm++ SMP mode devotes one core per process to a comm thread through
which *all* of that process's network sends and receives pass. For
fine-grained traffic this thread is the serializing bottleneck the paper
dissects in §III-A (PingAck): with ``t`` workers feeding one comm
thread, send-side service time ``comm_msg_ns + bytes * comm_byte_ns``
per message bounds throughput, which is why using more processes per
node (more comm threads) recovers performance.

Modelled as a single work-conserving FIFO server via the virtual-clock
technique (see :mod:`repro.network.nic`); both directions share the one
core, which is exactly the contended resource.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

from repro.errors import SimulationError
from repro.network.message import NetMessage

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.system import RuntimeSystem


@dataclass
class CommThreadStats:
    """Counters for one comm thread."""

    out_messages: int = 0
    in_messages: int = 0
    busy_ns: float = 0.0
    queue_wait_ns: float = 0.0
    #: High-water mark of the server's booked-ahead horizon: the worst
    #: backlog any single message observed on admission. Overload is
    #: visible here even with flow control off.
    max_backlog_ns: float = 0.0


class CommThread:
    """One process's dedicated communication server.

    Parameters
    ----------
    rt:
        Owning runtime.
    pid:
        Global process id this comm thread serves.
    """

    __slots__ = ("rt", "pid", "stats", "_free", "on_outbound_done")

    def __init__(self, rt: "RuntimeSystem", pid: int) -> None:
        self.rt = rt
        self.pid = pid
        self.stats = CommThreadStats()
        self._free = 0.0
        #: Installed by the transport: next hop after send-side service.
        self.on_outbound_done: Optional[Callable[[NetMessage], None]] = None

    def _serve(self, msg: NetMessage, hop: str) -> float:
        """Book one message through the FIFO server; return finish time."""
        now = self.rt.engine.now
        service = self.rt.costs.comm_service_ns(msg.size_bytes)
        start = self._free if self._free > now else now
        faults = self.rt.faults
        if faults is not None:
            # A scripted ct_stall window freezes the server: service may
            # not begin before the window closes. The wait lands in the
            # queue-wait accounting (and the ct_queue span stage), so the
            # stage-partition identity is unaffected.
            stall_until = faults.ct_stall_until(self.pid, now)
            if stall_until > start:
                faults.stats.ct_stall_ns += stall_until - start
                start = stall_until
        self.stats.queue_wait_ns += start - now
        self._free = start + service
        self.stats.busy_ns += service
        backlog = self._free - now
        if backlog > self.stats.max_backlog_ns:
            self.stats.max_backlog_ns = backlog
        span = msg.span
        if span is not None:
            span.ct_queue_ns += start - now
            span.ct_service_ns += service
        tracer = self.rt.engine.tracer
        if tracer is not None and tracer.wants("msg"):
            tracer.record(
                "msg", hop=hop, pid=self.pid, msg_id=msg.msg_id,
                start=start, dur=service,
            )
        return self._free

    def submit_outbound(self, msg: NetMessage) -> None:
        """A worker handed a message to send; forward it after service."""
        if self.on_outbound_done is None:
            raise SimulationError(f"comm thread {self.pid}: no outbound hop installed")
        dp = self.rt.dead_procs
        if dp and self.pid in dp:
            # A flow-control release (or late emission) can still hand
            # work to a dead process's comm thread; it dies with it.
            self.rt.faults.note_crash_destroyed(msg)
            return
        self.stats.out_messages += 1
        done = self._serve(msg, "ct_out")
        self.rt.engine.call_at(done, self.on_outbound_done, (msg,))

    def submit_inbound(self, msg: NetMessage) -> None:
        """A message arrived for this process; deliver after service."""
        self.stats.in_messages += 1
        done = self._serve(msg, "ct_in")
        self.rt.engine.call_at(done, self._deliver, (msg,))

    def _deliver(self, msg: NetMessage) -> None:
        rt = self.rt
        dp = rt.dead_procs
        if dp and self.pid in dp:
            # The message was booked through the server before the crash
            # landed; it must not be acked from a dead process.
            rt.faults.note_crash_destroyed(msg)
            return
        if rt.reliable is not None or rt.faults is not None:
            if not rt.transport.accept_inbound(msg, self.pid):
                return
        wid = msg.dst_worker
        if wid is None:
            wid = rt.process(self.pid).next_receiver()
        worker = rt.worker(wid)
        # Small enqueue hop from the comm thread into the PE's queue.
        rt.engine.call_after(rt.costs.enqueue_ns, worker.deliver_message, (msg,))

    @property
    def backlog_ns(self) -> float:
        """How far this server is booked beyond 'now'."""
        now = self.rt.engine.now
        return max(0.0, self._free - now)
