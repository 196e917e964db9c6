"""The runtime-attached flow controller.

One :class:`FlowController` per runtime (``rt.flow``; ``None`` when the
feature is off) owns one :class:`~repro.flow.credit.CreditGate` per
comm thread (SMP) and per NIC, and implements the four mechanisms of the
flow subsystem:

* **credit-based admission** — the transport routes every outbound
  message through :meth:`submit_ct` / :meth:`submit_nic` instead of
  booking the server directly; messages over the caps park in gate
  order and are admitted as earlier messages finish service.
  Retransmitted copies re-enter the transport like any send, so
  recovery traffic respects the same credits and cannot amplify
  overload. ``rel.ack`` control messages bypass the gates — stalling
  the ack path would only provoke more retransmits.
* **backpressure propagation** — while a worker's source gate is
  congested, the TramLib schemes charge the producing task a bounded
  CPU stall (:meth:`source_stall_ns`) instead of growing queues, and
  non-full flushes are deferred (:meth:`defer_flush`) until credits
  return. Parked wire time is attributed to the ``bp_stall`` span
  stage, keeping the stage-partition identity.
* **overload detection** — backlog beyond
  ``FlowConfig.overload_backlog_ns`` (or any parked message) escalates
  every attached scheme once (flush-timer stretch + buffer growth);
  the condition clears with hysteresis at ``clear_backlog_ns``.
* **load shedding** — past ``shed_backlog_ns``, unprotected messages
  to a destination whose parked budget is exhausted are destroyed and
  counted; the drop feeds loss-aware quiescence accounting via the
  ``on_loss`` hook (installed by ``rt.wire_loss_accounting``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from repro.flow.config import FlowConfig
from repro.flow.credit import CreditGate, ParkedMessage

if TYPE_CHECKING:  # pragma: no cover
    from repro.network.message import NetMessage
    from repro.network.nic import Nic
    from repro.runtime.commthread import CommThread
    from repro.runtime.system import RuntimeSystem

#: Control-plane message kinds that bypass credit gates (values match
#: ``repro.runtime.reliability.CONTROL_KINDS``; kept as literals to
#: avoid an import cycle through the runtime package). Probes must not
#: park: a liveness question stuck behind backpressure would convert
#: congestion into a false death verdict.
_CONTROL_KINDS = frozenset({"rel.ack", "rel.probe"})


@dataclass
class FlowStats:
    """Aggregate flow-control counters for one runtime."""

    messages_admitted: int = 0
    messages_parked: int = 0
    messages_shed: int = 0
    items_shed: int = 0
    bytes_shed: int = 0
    park_wait_ns: float = 0.0
    source_stalls: int = 0
    source_stall_ns: float = 0.0
    flush_deferrals: int = 0
    overload_escalations: int = 0
    overload_clears: int = 0

    def to_dict(self) -> dict:
        return {
            "messages_admitted": self.messages_admitted,
            "messages_parked": self.messages_parked,
            "messages_shed": self.messages_shed,
            "items_shed": self.items_shed,
            "bytes_shed": self.bytes_shed,
            "park_wait_ns": self.park_wait_ns,
            "source_stalls": self.source_stalls,
            "source_stall_ns": self.source_stall_ns,
            "flush_deferrals": self.flush_deferrals,
            "overload_escalations": self.overload_escalations,
            "overload_clears": self.overload_clears,
        }


def _payload_items(msg: "NetMessage") -> int:
    """Item count of an aggregated payload (0 for control messages)."""
    return int(getattr(msg.payload, "count", 0) or 0)


def conservation_ledger(rt: "RuntimeSystem") -> dict:
    """Item-conservation ledger for any runtime, flow or not.

    ``produced == delivered + shed + lost + abandoned + buffered +
    parked`` whenever the accounting is closable — plus a
    ``lost_to_crash`` term reported only when the crash fabric is armed,
    so crash-free artifacts are unchanged. Without a flow controller the
    shed/parked terms are zero. ``balanced`` is ``None`` when
    duplication faults run without the reliability layer (duplicates
    deliver twice, so no conservation identity exists), a bool
    otherwise.
    """
    produced = sum(s.stats.items_inserted for s in rt.schemes)
    delivered = sum(s.stats.items_delivered for s in rt.schemes)
    buffered = sum(s.pending_items() for s in rt.schemes)
    parked = rt.flow.parked_items() if rt.flow is not None else 0
    shed = rt.flow.stats.items_shed if rt.flow is not None else 0
    lost = rt.faults.stats.items_lost if rt.faults is not None else 0
    lost_to_crash = (
        rt.faults.stats.items_lost_to_crash
        if rt.dead_procs is not None and rt.faults is not None
        else 0
    )
    abandoned = (
        rt.reliable.stats.items_abandoned if rt.reliable is not None else 0
    )
    accounted = (
        delivered + shed + lost + lost_to_crash + abandoned + buffered + parked
    )
    balanced: Optional[bool]
    if rt.faults is not None and rt.reliable is None and _dup_possible(rt):
        balanced = None
    else:
        balanced = produced == accounted
    out = {
        "produced": produced,
        "delivered": delivered,
        "shed": shed,
        "lost": lost,
        "abandoned": abandoned,
        "buffered": buffered,
        "parked": parked,
        "balanced": balanced,
    }
    if rt.dead_procs is not None:
        out["lost_to_crash"] = lost_to_crash
    return out


def _dup_possible(rt: "RuntimeSystem") -> bool:
    plan = rt.faults.plan
    if plan.dup > 0:
        return True
    return any(w.kind == "dup" for w in plan.windows)


class FlowController:
    """Per-runtime credit gates, overload detector and shedding policy."""

    __slots__ = (
        "rt",
        "config",
        "stats",
        "on_loss",
        "shed_by_dest",
        "_ct_gates",
        "_nic_gates",
        "_flush_waiters",
        "_stall_marks",
        "_overloaded",
    )

    def __init__(self, rt: "RuntimeSystem", config: FlowConfig) -> None:
        self.rt = rt
        self.config = config
        self.stats = FlowStats()
        #: ``hook(msg, items)`` called for every shed message; installed
        #: by ``rt.wire_loss_accounting`` for quiescence bookkeeping.
        self.on_loss: Optional[Callable[[Any, int], None]] = None
        #: Shed message counts keyed by destination process.
        self.shed_by_dest: Dict[int, int] = {}
        #: pid -> (gate, comm thread); empty in non-SMP mode.
        self._ct_gates: Dict[int, Tuple[CreditGate, "CommThread"]] = {}
        #: id(nic) -> (gate, nic).
        self._nic_gates: Dict[int, Tuple[CreditGate, "Nic"]] = {}
        #: id(gate) -> {(id(scheme), wid): (scheme, wid)} deferred flushes.
        self._flush_waiters: Dict[int, Dict[Tuple[int, int], Tuple[Any, int]]] = {}
        #: wid -> (id(ctx), ctx.start): dedupes stall charges per task.
        self._stall_marks: Dict[int, Tuple[int, float]] = {}
        self._overloaded = False
        if rt.machine.smp:
            for proc in rt.processes:
                ct = proc.commthread
                if ct is not None:
                    gate = CreditGate(
                        f"ct:{proc.pid}", config.ct_max_msgs, config.ct_max_bytes
                    )
                    self._ct_gates[proc.pid] = (gate, ct)
        for node in rt.nodes:
            for i, nic in enumerate(node.nics):
                gate = CreditGate(
                    f"nic:{node.node_id}.{i}",
                    config.nic_max_msgs,
                    config.nic_max_bytes,
                )
                self._nic_gates[id(nic)] = (gate, nic)

    # ------------------------------------------------------------------
    # Admission (called by the transport)
    # ------------------------------------------------------------------
    def submit_ct(self, ct: "CommThread", msg: "NetMessage") -> None:
        """Gate a message headed for a comm thread's send service."""
        if msg.kind in _CONTROL_KINDS:
            ct.submit_outbound(msg)
            return
        gate, _ = self._ct_gates[ct.pid]
        self._check_overload(gate, self._ct_pressure(ct))
        if not gate.parked and gate.can_admit(msg.size_bytes):
            self._admit_ct(gate, ct, msg)
        else:
            self._park_or_shed(
                gate,
                msg,
                self._ct_pressure(ct),
                lambda: self._admit_ct(gate, ct, msg),
            )

    def submit_nic(
        self, nic: "Nic", msg: "NetMessage", dst_nic: "Nic", wire_latency_ns: float
    ) -> None:
        """Gate a message headed for a NIC's tx serialization."""
        if msg.kind in _CONTROL_KINDS:
            nic.inject(msg, dst_nic, wire_latency_ns)
            return
        gate, _ = self._nic_gates[id(nic)]
        self._check_overload(gate, nic.tx_backlog_ns)
        if not gate.parked and gate.can_admit(msg.size_bytes):
            self._admit_nic(gate, nic, msg, dst_nic, wire_latency_ns)
        else:
            self._park_or_shed(
                gate,
                msg,
                nic.tx_backlog_ns,
                lambda: self._admit_nic(gate, nic, msg, dst_nic, wire_latency_ns),
            )

    def _admit_ct(self, gate: CreditGate, ct: "CommThread", msg: "NetMessage") -> None:
        gate.acquire(msg.size_bytes)
        self.stats.messages_admitted += 1
        ct.submit_outbound(msg)
        # The credit returns when the comm thread would finish this
        # message's send service (the server is FIFO, so its post-booking
        # horizon is exactly that time).
        self.rt.engine.timer_at(ct._free, self._release, gate, msg.size_bytes)

    def _admit_nic(
        self,
        gate: CreditGate,
        nic: "Nic",
        msg: "NetMessage",
        dst_nic: "Nic",
        wire_latency_ns: float,
    ) -> None:
        gate.acquire(msg.size_bytes)
        self.stats.messages_admitted += 1
        nic.inject(msg, dst_nic, wire_latency_ns)
        self.rt.engine.timer_at(nic._tx_free, self._release, gate, msg.size_bytes)

    # ------------------------------------------------------------------
    # Parking, shedding, release
    # ------------------------------------------------------------------
    def _park_or_shed(
        self,
        gate: CreditGate,
        msg: "NetMessage",
        pressure_ns: float,
        admit: Callable[[], None],
    ) -> None:
        cfg = self.config
        if (
            cfg.shed_backlog_ns is not None
            and msg.seq is None  # never shed reliably-tracked messages
            and pressure_ns >= cfg.shed_backlog_ns
            and gate.parked_for(msg.dst_process) >= cfg.max_parked_per_dest
        ):
            self._shed(msg)
            return
        gate.park(
            ParkedMessage(msg, admit, msg.dst_process, self.rt.engine.now)
        )
        self.stats.messages_parked += 1

    def _shed(self, msg: "NetMessage") -> None:
        items = _payload_items(msg)
        self.stats.messages_shed += 1
        self.stats.items_shed += items
        self.stats.bytes_shed += msg.size_bytes
        dest = msg.dst_process
        self.shed_by_dest[dest] = self.shed_by_dest.get(dest, 0) + 1
        if self.on_loss is not None:
            self.on_loss(msg, items)

    def _release(self, gate: CreditGate, nbytes: int) -> None:
        gate.release(nbytes)
        now = self.rt.engine.now
        while gate.parked:
            head = gate.parked[0]
            if not gate.can_admit(head.msg.size_bytes):
                break
            gate.pop_parked()
            wait = now - head.t_parked
            self.stats.park_wait_ns += wait
            span = head.msg.span
            if span is not None:
                # Parked time sits between send_time and pe_arrival, so
                # attributing it keeps the stage-partition identity.
                span.bp_stall_ns += wait
            head.admit()
        if not gate.blocked:
            self._resume_flushes(gate)
        self._maybe_clear_overload()

    # ------------------------------------------------------------------
    # Backpressure into the schemes
    # ------------------------------------------------------------------
    def _source_gate(self, wid: int) -> Optional[CreditGate]:
        """The gate a worker's outbound traffic passes first."""
        machine = self.rt.machine
        pid = machine.process_of_worker(wid)
        if machine.smp:
            entry = self._ct_gates.get(pid)
            return entry[0] if entry is not None else None
        node = machine.node_of_process(pid)
        nic = self.rt.node(node).nic_for_process(pid)
        return self._nic_gates[id(nic)][0]

    def _source_pressure(self, wid: int) -> float:
        machine = self.rt.machine
        pid = machine.process_of_worker(wid)
        if machine.smp:
            return self._ct_pressure(self._ct_gates[pid][1])
        node = machine.node_of_process(pid)
        return self.rt.node(node).nic_for_process(pid).tx_backlog_ns

    def _ct_pressure(self, ct: "CommThread") -> float:
        """Comm-thread backlog including any remaining scripted stall."""
        pressure = ct.backlog_ns
        faults = self.rt.faults
        if faults is not None:
            pressure += faults.stall_remaining_ns(ct.pid, self.rt.engine.now)
        return pressure

    def source_stall_ns(self, ctx) -> float:
        """CPU stall to charge a producing task, once per task.

        Called from the schemes' insert paths; returns 0 unless the
        worker's source gate is congested past the overload threshold.
        The stall is bounded by ``FlowConfig.max_stall_ns`` so a single
        task never sleeps for the whole backlog.
        """
        wid = ctx.worker.wid
        mark = (id(ctx), ctx.start)
        if self._stall_marks.get(wid) == mark:
            return 0.0
        cfg = self.config
        gate = self._source_gate(wid)
        if gate is None:
            return 0.0
        pressure = self._source_pressure(wid)
        if not gate.blocked and pressure <= cfg.overload_backlog_ns:
            return 0.0
        self._stall_marks[wid] = mark
        stall = min(cfg.max_stall_ns, max(0.0, pressure - cfg.clear_backlog_ns))
        if stall <= 0.0:
            return 0.0
        self.stats.source_stalls += 1
        self.stats.source_stall_ns += stall
        return stall

    def defer_flush(self, scheme, wid: int) -> bool:
        """Defer a non-full flush while the source gate is blocked.

        Returns True when the flush was deferred; the controller reposts
        the scheme's flush task on the owning worker once the gate
        unblocks. Returning False means the caller should flush now.
        """
        gate = self._source_gate(wid)
        if gate is None or not gate.blocked:
            return False
        waiters = self._flush_waiters.setdefault(id(gate), {})
        key = (id(scheme), wid)
        if key not in waiters:
            waiters[key] = (scheme, wid)
            self.stats.flush_deferrals += 1
        return True

    def _resume_flushes(self, gate: CreditGate) -> None:
        waiters = self._flush_waiters.pop(id(gate), None)
        if not waiters:
            return
        for scheme, wid in waiters.values():
            self.rt.worker(wid).post_task(
                scheme._flush_task, expedited=scheme.config.expedited
            )

    # ------------------------------------------------------------------
    # Crash fabric
    # ------------------------------------------------------------------
    def on_process_crashed(self, pid: int) -> None:
        """Release everything held for or by the dead process ``pid``.

        Parked messages to or from it are destroyed and accounted (a
        parked FIFO waiting on a dead destination would otherwise hold
        its gate slot forever — the credit-leak deadlock). Credits
        already acquired need no special handling: their release timers
        fire at the server's booked horizon regardless, so in-flight
        credit always returns.
        """
        faults = self.rt.faults
        machine = self.rt.machine

        def doomed(entry: ParkedMessage) -> bool:
            if entry.dst_process == pid:
                return True
            return machine.process_of_worker(entry.msg.src_worker) == pid

        for gate in self.gates():
            if not gate.parked:
                continue
            for entry in gate.purge(doomed):
                if faults is not None:
                    faults.note_crash_destroyed(entry.msg)
            if not gate.blocked:
                self._resume_flushes(gate)
        # Flush deferrals registered by the dead process's own workers
        # resolve harmlessly: the reposted flush task lands on a dead
        # worker and is dropped (its buffers were drained at crash).
        self._maybe_clear_overload()

    # ------------------------------------------------------------------
    # Overload detector
    # ------------------------------------------------------------------
    def _check_overload(self, gate: CreditGate, pressure_ns: float) -> None:
        if self._overloaded:
            return
        if pressure_ns > self.config.overload_backlog_ns or gate.parked:
            self._overloaded = True
            self.stats.overload_escalations += 1
            for scheme in self.rt.schemes:
                scheme.on_overload()

    def _maybe_clear_overload(self) -> None:
        if not self._overloaded:
            return
        clear = self.config.clear_backlog_ns
        now = self.rt.engine.now
        for gate, ct in self._ct_gates.values():
            if gate.parked or self._ct_pressure(ct) >= clear:
                return
        for gate, nic in self._nic_gates.values():
            if gate.parked or nic.tx_backlog_ns >= clear:
                return
        self._overloaded = False
        self.stats.overload_clears += 1
        for scheme in self.rt.schemes:
            scheme.on_overload_cleared()

    @property
    def overloaded(self) -> bool:
        """Whether the overload detector is currently escalated."""
        return self._overloaded

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def gates(self) -> List[CreditGate]:
        """All gates (comm-thread gates first, then NIC gates)."""
        return [g for g, _ in self._ct_gates.values()] + [
            g for g, _ in self._nic_gates.values()
        ]

    def parked_messages(self) -> int:
        """Messages currently parked across all gates."""
        return sum(len(g.parked) for g in self.gates())

    def parked_items(self) -> int:
        """Items inside currently parked messages."""
        return sum(
            _payload_items(e.msg) for g in self.gates() for e in g.parked
        )

    def conservation(self) -> dict:
        """Item-conservation ledger across the whole runtime.

        ``produced == delivered + shed + lost + abandoned + buffered +
        parked`` whenever the accounting is closable — plus a
        ``lost_to_crash`` term (reported only when the crash fabric is
        armed, so crash-free artifacts are unchanged). ``balanced`` is
        ``None`` when duplication faults run without the reliability
        layer (duplicates deliver twice, so no conservation identity
        exists), a bool otherwise.
        """
        return conservation_ledger(self.rt)

    def to_dict(self) -> dict:
        """Snapshot block: stats, per-gate occupancy, conservation."""
        return {
            "stats": self.stats.to_dict(),
            "gates": [g.to_dict() for g in self.gates()],
            "shed_by_dest": dict(self.shed_by_dest),
            "conservation": self.conservation(),
        }
