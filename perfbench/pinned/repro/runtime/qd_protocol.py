"""Distributed quiescence detection (Charm++-style two-wave protocol).

The applications in this repository normally rely on the simulator's
global view (event-queue exhaustion) for termination. Real Charm++
programs cannot: they run a *distributed* protocol — repeated waves in
which every process reports its produced/consumed message counts to a
coordinator, and quiescence is declared only after **two consecutive
waves** observe equal, unchanged totals (one wave is not enough: a
message can be in flight between a consumer's report and a producer's).

This module implements that protocol *inside* the simulation: poll and
reply messages are ordinary :class:`~repro.network.message.NetMessage`s
that pay comm-thread/NIC/wire costs like any application traffic, so
the detection *latency* and *overhead* are measurable — and the tests
verify the classic safety/liveness pair: never declare early, always
declare eventually.

Usage::

    qd = QuiescenceDetector(rt, on_quiescence=lambda t: ...)
    # inside application handlers:
    qd.note_produced(ctx)     # when creating an item
    qd.note_consumed(ctx)     # when finally handling one
    qd.start()                # arm the coordinator (worker 0)
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Callable, Optional

from repro.errors import ConfigError
from repro.network.message import NetMessage

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.context import ExecContext
    from repro.runtime.system import RuntimeSystem

_ids = itertools.count()


class QuiescenceDetector:
    """Two-wave distributed termination detection.

    Parameters
    ----------
    rt:
        The runtime to attach to.
    on_quiescence:
        ``fn(sim_time_ns)`` invoked exactly once, on the coordinator PE,
        when quiescence is confirmed.
    poll_interval_ns:
        Gap between detection waves.
    """

    #: Counter-report message size (two 8-byte counters + header).
    REPLY_BYTES = 16
    #: Fault-mode liveness knobs: a wave whose replies do not all arrive
    #: within ``WATCHDOG_FACTOR`` poll intervals counts as stalled, and
    #: after ``STRIKE_LIMIT`` stalled waves — or as many consecutive
    #: complete waves stuck on identical unbalanced totals — quiescence
    #: is declared *degraded* instead of hanging forever. Only armed
    #: when the runtime has a fault plan.
    WATCHDOG_FACTOR = 10.0
    STRIKE_LIMIT = 5

    def __init__(
        self,
        rt: "RuntimeSystem",
        on_quiescence: Callable[[float], None],
        poll_interval_ns: float = 50_000.0,
    ) -> None:
        if poll_interval_ns <= 0:
            raise ConfigError("poll_interval_ns must be positive")
        self.rt = rt
        self.on_quiescence = on_quiescence
        self.poll_interval_ns = poll_interval_ns
        machine = rt.machine
        #: Per-worker local counters (shared-memory reads within a
        #: process are free; only the protocol messages pay costs).
        self._produced = [0] * machine.total_workers
        self._consumed = [0] * machine.total_workers
        self._ns = f"qd/{next(_ids)}"
        rt.register_handler(self._ns + ".poll", self._on_poll)
        rt.register_handler(self._ns + ".reply", self._on_reply)
        # Coordinator state (lives on worker 0's process, conceptually).
        self._wave = 0
        self._pending_replies = 0
        self._wave_produced = 0
        self._wave_consumed = 0
        self._last_totals: Optional[tuple] = None
        self._done = False
        self._started = False
        #: Protocol overhead counters (for the curious).
        self.waves_run = 0
        self.messages_sent = 0
        #: Set when quiescence was declared by the fault-mode fallback
        #: (loss or a stuck channel) rather than clean balanced waves.
        self.degraded = False
        self._lost = 0
        self._watchdog = None
        self._stall_strikes = 0
        self._unbalanced_strikes = 0
        self._last_any_totals: Optional[tuple] = None

    # ------------------------------------------------------------------
    # Application-side accounting
    # ------------------------------------------------------------------
    def note_produced(self, ctx: "ExecContext", n: int = 1) -> None:
        """Record ``n`` application messages/items created."""
        self._produced[ctx.worker.wid] += n

    def note_consumed(self, ctx: "ExecContext", n: int = 1) -> None:
        """Record ``n`` application messages/items fully handled."""
        self._consumed[ctx.worker.wid] += n

    def note_lost(self, n: int = 1) -> None:
        """Record ``n`` items destroyed by faults, never to be consumed.

        Fed by ``RuntimeSystem.wire_loss_accounting``; the loss total
        joins the balance test so a lossy run converges to a *degraded*
        quiescence verdict instead of never balancing. (Kept as one
        coordinator-side counter — a simulation shortcut; the per-process
        counters only carry produced/consumed like the real protocol.)
        """
        self._lost += n

    # ------------------------------------------------------------------
    # Protocol
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Arm the coordinator; the first wave fires one interval out."""
        if self._started:
            raise ConfigError("detector already started")
        self._started = True
        self.rt.engine.timer_after(self.poll_interval_ns, self._begin_wave)

    def _begin_wave(self) -> None:
        if self._done:
            return
        self._wave += 1
        self.waves_run += 1
        machine = self.rt.machine
        self._pending_replies = machine.total_processes
        self._wave_produced = 0
        self._wave_consumed = 0
        dp = self.rt.dead_procs
        if dp:
            # Dead participants cannot reply; fold their last-known
            # counters into the wave totals coordinator-side (simulation
            # shortcut — a real protocol would have the membership layer
            # supply the final reports) so the wave still completes. The
            # counters froze at crash time: dead workers schedule
            # nothing.
            for pid in dp:
                self._pending_replies -= 1
                for w in machine.workers_of_process(pid):
                    self._wave_produced += self._produced[w]
                    self._wave_consumed += self._consumed[w]
        # The coordinator task runs on worker 0 and polls every process
        # (including its own, uniformly, so costs are symmetric).
        self.rt.post(0, self._send_polls, expedited=True)
        if self.rt.faults is not None:
            self._watchdog = self.rt.engine.timer_after(
                self.WATCHDOG_FACTOR * self.poll_interval_ns, self._on_watchdog
            )

    def _on_watchdog(self) -> None:
        """A wave's replies did not all arrive in time (lost to faults)."""
        self._watchdog = None
        if self._done:
            return
        self._stall_strikes += 1
        if self._stall_strikes >= self.STRIKE_LIMIT:
            self._declare_degraded(self.rt.engine.now)
            return
        self._begin_wave()

    def _declare_degraded(self, t: float) -> None:
        self._done = True
        self.degraded = True
        self.on_quiescence(t)

    def _send_polls(self, ctx: "ExecContext") -> None:
        costs = self.rt.costs
        dp = self.rt.dead_procs
        for pid in range(self.rt.machine.total_processes):
            if dp and pid in dp:
                continue  # folded into the wave totals at _begin_wave
            msg = NetMessage(
                kind=self._ns + ".poll",
                src_worker=ctx.worker.wid,
                dst_process=pid,
                size_bytes=costs.message_bytes(1, 8),
                payload=self._wave,
            )
            ctx.charge(costs.pack_msg_ns)
            if not self.rt.machine.smp:
                ctx.charge(costs.nonsmp_send_service_ns(msg.size_bytes))
            self.messages_sent += 1
            ctx.emit(self.rt.transport.send, msg)

    def _on_poll(self, ctx: "ExecContext", msg: NetMessage) -> None:
        """Any PE of the polled process sums its process's counters."""
        machine = self.rt.machine
        pid = machine.process_of_worker(ctx.worker.wid)
        workers = machine.workers_of_process(pid)
        # Shared-memory reads of t counters.
        ctx.charge(machine.workers_per_process * 10.0)
        produced = sum(self._produced[w] for w in workers)
        consumed = sum(self._consumed[w] for w in workers)
        reply = NetMessage(
            kind=self._ns + ".reply",
            src_worker=ctx.worker.wid,
            dst_process=machine.process_of_worker(0),
            dst_worker=0,
            size_bytes=self.rt.costs.message_bytes(1, self.REPLY_BYTES),
            payload=(msg.payload, produced, consumed),
        )
        ctx.charge(self.rt.costs.pack_msg_ns)
        if not machine.smp:
            ctx.charge(self.rt.costs.nonsmp_send_service_ns(reply.size_bytes))
        self.messages_sent += 1
        ctx.emit(self.rt.transport.send, reply)

    def _on_reply(self, ctx: "ExecContext", msg: NetMessage) -> None:
        wave, produced, consumed = msg.payload
        if wave != self._wave or self._done:
            return  # stale reply from a superseded wave
        self._wave_produced += produced
        self._wave_consumed += consumed
        self._pending_replies -= 1
        if self._pending_replies:
            return
        faulty = self.rt.faults is not None
        if faulty:
            if self._watchdog is not None:
                self.rt.engine.cancel(self._watchdog)
                self._watchdog = None
            self._stall_strikes = 0
            # Acknowledged losses join the balance: a degraded run's
            # books close at produced == consumed + lost.
            totals = (self._wave_produced, self._wave_consumed, self._lost)
            balanced = totals[0] == totals[1] + totals[2]
        else:
            totals = (self._wave_produced, self._wave_consumed)
            balanced = totals[0] == totals[1]
        if balanced and self._last_totals == totals:
            # Second consecutive identical, balanced observation.
            self._done = True
            if self.rt.dead_procs:
                # The books close, but participants died along the way:
                # the verdict is degraded, not clean.
                self.degraded = True
            self.on_quiescence(ctx.now)
            return
        if faulty:
            # Complete waves stuck on the same unbalanced totals mean
            # items vanished without a loss report (e.g. loss accounting
            # not wired): declare a degraded quiescence rather than
            # polling forever.
            if not balanced and self._last_any_totals == totals:
                self._unbalanced_strikes += 1
                if self._unbalanced_strikes >= self.STRIKE_LIMIT:
                    self._declare_degraded(ctx.now)
                    return
            else:
                self._unbalanced_strikes = 0
            self._last_any_totals = totals
        self._last_totals = totals if balanced else None
        self.rt.engine.timer_after(self.poll_interval_ns, self._begin_wave)

    # ------------------------------------------------------------------
    @property
    def detected(self) -> bool:
        """Whether quiescence has been declared."""
        return self._done
