"""Seeded fault injector: the dice behind a :class:`FaultPlan`.

The injector is attached to a runtime (``rt.faults``) when it is built
with a non-noop plan, and consulted from exactly three places:

* :meth:`wire_outcomes` — at the source NIC, once per inter-node
  message, deciding the physical copies that actually reach the wire
  (drop / duplicate / corrupt / bounded reordering);
* :meth:`nic_occupancy_multiplier` — per NIC booking, scaling occupancy
  during a scripted ``nic_degrade`` window;
* :meth:`ct_stall_until` — per comm-thread service, holding the server
  idle through a scripted ``ct_stall`` window.

Randomness comes from the runtime's ``"faults"`` RNG stream, so fault
placement is reproducible per root seed and independent of application
randomness. Wire dice are keyed on the *destination node*, which lets a
window confine faults to traffic towards one victim.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Tuple

from repro.faults.plan import FaultPlan, FaultWindow, WIRE_KINDS
from repro.network.message import NetMessage


@dataclass
class FaultStats:
    """What the fabric actually did to the run.

    ``messages_lost`` / ``items_lost`` count *unprotected* casualties:
    copies the injector destroyed (drop, or corrupt with nobody
    verifying checksums) that no reliability layer will resend. Items
    are counted via the payload's duck-typed ``count`` so quiescence
    accounting can be made loss-aware.
    """

    messages_dropped: int = 0
    messages_duplicated: int = 0
    messages_corrupted: int = 0
    messages_reordered: int = 0
    messages_lost: int = 0
    items_lost: int = 0
    ct_stall_ns: float = 0.0
    #: Endpoint-failure fabric: processes killed / revived, and the
    #: traffic destroyed *because* an endpoint was dead (disjoint from
    #: ``messages_lost`` — a crash loss is never also a wire loss).
    proc_crashes: int = 0
    proc_restarts: int = 0
    messages_lost_to_crash: int = 0
    items_lost_to_crash: int = 0

    def to_dict(self) -> dict:
        return {
            "messages_dropped": self.messages_dropped,
            "messages_duplicated": self.messages_duplicated,
            "messages_corrupted": self.messages_corrupted,
            "messages_reordered": self.messages_reordered,
            "messages_lost": self.messages_lost,
            "items_lost": self.items_lost,
            "ct_stall_ns": self.ct_stall_ns,
        }

    def crash_to_dict(self) -> dict:
        """Crash-fabric counters, merged into snapshots only when the
        fabric is armed so crash-free artifacts stay byte-identical."""
        return {
            "proc_crashes": self.proc_crashes,
            "proc_restarts": self.proc_restarts,
            "messages_lost_to_crash": self.messages_lost_to_crash,
            "items_lost_to_crash": self.items_lost_to_crash,
        }


def _payload_items(msg: NetMessage) -> int:
    """Application items carried by a message (0 for control traffic)."""
    count = getattr(msg.payload, "count", 0)
    # Control payloads can be plain tuples, whose ``count`` attribute is
    # the bound method — they carry no application items.
    if callable(count):
        return 0
    return int(count or 0)


@dataclass
class FaultInjector:
    """Applies a :class:`FaultPlan` deterministically to one runtime.

    Parameters
    ----------
    plan:
        The declarative fault regime.
    rng:
        Generator from the runtime's ``"faults"`` stream.
    """

    plan: FaultPlan
    rng: Any
    stats: FaultStats = field(default_factory=FaultStats)
    #: Called as ``fn(msg, items)`` when an *unprotected* copy is
    #: destroyed; apps hook this to keep quiescence loss-aware.
    #: ``msg`` is ``None`` for crash losses not tied to one message
    #: (drained worker queues, buffered aggregation items).
    on_loss: Optional[Callable[[Optional[NetMessage], int], None]] = None
    #: Dedicated RNG stream (``"proc-faults"``) for seeded crash
    #: placement. Kept separate from the wire-dice stream so enabling
    #: crashes never reshuffles which messages get dropped/duplicated.
    crash_rng: Any = None

    def _wire_prob(self, kind: str, dst_node: int, now: float) -> float:
        """Effective probability of ``kind`` for a message to ``dst_node``."""
        p = getattr(self.plan, kind)
        for w in self.plan.windows:
            if w.kind == kind and w.active(now) and w.matches(dst_node):
                p += w.magnitude
        return p if p < 1.0 else 1.0

    def wire_outcomes(
        self, msg: NetMessage, dst_node: int, now: float
    ) -> List[Tuple[Optional[NetMessage], float]]:
        """Decide the fate of one inter-node message at the source NIC.

        Returns ``(copy, extra_delay_ns)`` pairs — the physical copies to
        put on the wire. An empty list means the message was dropped
        (the NIC still pays tx occupancy: the bits left the node, the
        wire ate them). Duplicates are independent
        :meth:`~repro.network.message.NetMessage.wire_copy` envelopes;
        a corrupted copy travels with ``checksum_ok=False``; a reordered
        copy picks up a bounded extra wire delay.
        """
        # One uniform draw per dice keeps the stream's consumption
        # independent of which faults are enabled, so adding e.g. dup
        # probability does not reshuffle drop placement.
        drop = self.rng.random() < self._wire_prob("drop", dst_node, now)
        dup = self.rng.random() < self._wire_prob("dup", dst_node, now)
        corrupt = self.rng.random() < self._wire_prob("corrupt", dst_node, now)
        reorder = self.rng.random() < self._wire_prob("reorder", dst_node, now)

        if drop:
            self.stats.messages_dropped += 1
            self.note_destroyed(msg)
            return []

        outcomes: List[Tuple[Optional[NetMessage], float]] = [(msg, 0.0)]
        if corrupt:
            self.stats.messages_corrupted += 1
            msg.checksum_ok = False
        if reorder:
            self.stats.messages_reordered += 1
            extra = float(self.rng.random()) * self.plan.reorder_max_ns
            outcomes[0] = (msg, extra)
        if dup:
            self.stats.messages_duplicated += 1
            outcomes.append((msg.wire_copy(), 0.0))
        return outcomes

    def note_destroyed(self, msg: NetMessage) -> None:
        """Record that a copy was destroyed with no reliability cover.

        Called by the injector itself on drop and by the receive path
        when an unprotected (``seq is None``) corrupt copy is discarded.
        Protected copies never reach here — their loss is either repaired
        by retransmission or accounted by the reliability layer when the
        retry budget trips.
        """
        if msg.seq is not None:
            return
        items = _payload_items(msg)
        self.stats.messages_lost += 1
        self.stats.items_lost += items
        if self.on_loss is not None:
            self.on_loss(msg, items)

    def note_crash_destroyed(self, msg: NetMessage) -> None:
        """A copy hit a dead endpoint *before* being accepted.

        Mirrors :meth:`note_destroyed`: only unprotected copies count —
        a protected (``seq`` stamped) copy is still pending at its
        sender, and the reliability teardown accounts its loss exactly
        once when the peer's death is confirmed.
        """
        if msg.seq is not None:
            return
        items = _payload_items(msg)
        self.stats.messages_lost_to_crash += 1
        self.stats.items_lost_to_crash += items
        if self.on_loss is not None:
            self.on_loss(msg, items)

    def note_crash_items(self, items: int, messages: int = 0) -> None:
        """Raw crash-loss accounting for items not tied to a live copy.

        Used where the lost work is a *count*, not a message in flight:
        a dead worker's queued tasks, aggregation items buffered at the
        crashed process, parked flow entries, and the reliability
        layer's pending-channel teardown (which has already applied the
        receiver-ground-truth split).
        """
        if items <= 0 and messages <= 0:
            return
        self.stats.messages_lost_to_crash += messages
        self.stats.items_lost_to_crash += items
        if self.on_loss is not None and items > 0:
            self.on_loss(None, items)

    def crash_schedule(self, total_processes: int) -> List[Tuple[float, str, int]]:
        """Resolve the plan into concrete ``(time, kind, pid)`` events.

        Scripted ``proc_crash`` / ``proc_restart`` windows map directly;
        seeded victims come from the dedicated crash stream: distinct
        processes (never pid 0 — it hosts the quiescence coordinator),
        crash times uniform in ``[crash_t_min_ns, crash_t_max_ns)``,
        optional restarts ``crash_restart_after_ns`` later. The result
        is sorted by time so the runtime can schedule it verbatim.
        """
        events: List[Tuple[float, str, int]] = []
        for w in self.plan.windows:
            if w.kind == "proc_crash":
                events.append((w.t_start, "crash", int(w.target)))
            elif w.kind == "proc_restart":
                events.append((w.t_start, "restart", int(w.target)))
        n = self.plan.crash_procs
        if n > 0:
            candidates = list(range(1, total_processes))
            if n > len(candidates):
                n = len(candidates)
            rng = self.crash_rng if self.crash_rng is not None else self.rng
            victims = rng.choice(
                len(candidates), size=n, replace=False
            )
            for v in sorted(int(i) for i in victims):
                pid = candidates[v]
                span = self.plan.crash_t_max_ns - self.plan.crash_t_min_ns
                t = self.plan.crash_t_min_ns + float(rng.random()) * span
                events.append((t, "crash", pid))
                if self.plan.crash_restart_after_ns is not None:
                    events.append(
                        (t + self.plan.crash_restart_after_ns, "restart", pid)
                    )
        events.sort(key=lambda e: (e[0], e[1], e[2]))
        return events

    def nic_occupancy_multiplier(self, node_id: int, now: float) -> float:
        """Occupancy multiplier for a NIC booking (``nic_degrade``)."""
        mult = 1.0
        for w in self.plan.windows:
            if w.kind == "nic_degrade" and w.active(now) and w.matches(node_id):
                mult *= w.magnitude
        return mult

    def ct_stall_until(self, pid: int, now: float) -> float:
        """Earliest time process ``pid``'s comm thread may serve work.

        Returns ``now`` when no ``ct_stall`` window covers it; otherwise
        the end of the latest covering window.
        """
        until = now
        for w in self.plan.windows:
            if w.kind == "ct_stall" and w.active(now) and w.matches(pid):
                if w.t_end > until:
                    until = w.t_end
        return until

    def stall_remaining_ns(self, pid: int, now: float) -> float:
        """Remaining scripted ``ct_stall`` time for ``pid`` at ``now``.

        Zero outside any window. The flow controller folds this into a
        comm thread's effective pressure so a stalled-but-empty server
        still registers as congested.
        """
        return self.ct_stall_until(pid, now) - now

    def has_wire_faults(self) -> bool:
        """Whether any wire-level dice can ever come up non-trivial."""
        if any(getattr(self.plan, k) > 0.0 for k in WIRE_KINDS):
            return True
        return any(w.kind in WIRE_KINDS for w in self.plan.windows)
