"""Worker PE: a message-driven server bound to one core.

Each worker owns two task lanes — *expedited* (TramLib messages, per the
paper's use of Charm++ expedited methods) and *normal* — and processes
one task at a time. When both lanes drain, the worker fires its idle
hooks; TramLib registers an idle-flush hook there so partially filled
buffers are pushed out when the PE has nothing better to do.

If the cost model's ``os_noise_factor`` is non-zero, the first worker of
every process runs that much slower, modelling the unshielded core that
absorbs OS daemons and GPU callbacks (§III-A).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Deque, List, Tuple

from repro.faults.injector import _payload_items
from repro.runtime.context import ExecContext

if TYPE_CHECKING:  # pragma: no cover
    from repro.network.message import NetMessage
    from repro.runtime.system import RuntimeSystem


def _task_items(fn: Callable, args: tuple) -> Tuple[int, int]:
    """(application items, network messages) a queued task represents.

    Used by the crash fabric to account work drained from a dead
    worker's lanes. Message-handler tasks carry their message's payload
    count; scheme section tasks advertise where their count lives via a
    ``_crash_drain_items`` function attribute (see
    ``repro.tram.schemes.base``); everything else (drivers, flushes)
    carries no undelivered items — buffered work is drained separately.
    """
    if fn is Worker._run_message_handler:
        return _payload_items(args[1]), 1
    tag = getattr(getattr(fn, "__func__", fn), "_crash_drain_items", None)
    if tag == "list":
        return len(args[0]), 0
    if tag == "count":
        return int(args[0]), 0
    return 0, 0


@dataclass
class WorkerStats:
    """Per-PE execution counters."""

    tasks_executed: int = 0
    busy_ns: float = 0.0
    idle_transitions: int = 0
    messages_received: int = 0
    #: Bytes of received messages whose handler has not yet run — the
    #: PE-side queue occupancy byte-based credit schemes read.
    queued_bytes: int = 0
    queued_bytes_hwm: int = 0


class Worker:
    """One processing element (PE).

    Parameters
    ----------
    rt:
        The owning runtime system.
    wid:
        Global worker id.
    """

    __slots__ = (
        "rt",
        "wid",
        "stats",
        "idle_hooks",
        "task_hook",
        "_normal",
        "_expedited",
        "_busy",
        "_noise_mult",
        "_start_next_cb",
        "dead",
    )

    def __init__(self, rt: "RuntimeSystem", wid: int) -> None:
        self.rt = rt
        self.wid = wid
        self.stats = WorkerStats()
        #: Callables ``hook(worker)`` invoked when the PE goes idle.
        self.idle_hooks: List[Callable[["Worker"], None]] = []
        #: Optional ``hook(worker, fn, ctx)`` called after each executed
        #: task (used by :mod:`repro.util.timeline` for trace export).
        self.task_hook = None
        self._normal: Deque[Tuple[Callable[..., Any], tuple]] = deque()
        self._expedited: Deque[Tuple[Callable[..., Any], tuple]] = deque()
        self._busy = False
        #: Bound ``_start_next``, created once: each task completion
        #: schedules it directly.
        self._start_next_cb = self._start_next
        #: Set by the crash fabric when the owning process dies; a dead
        #: worker accepts no work and counts whatever reaches it as
        #: lost-to-crash.
        self.dead = False
        noise = rt.costs.os_noise_factor
        is_noisy = noise > 0 and rt.machine.local_rank_of_worker(wid) == 0
        self._noise_mult = 1.0 + noise if is_noisy else 1.0

    # ------------------------------------------------------------------
    # Posting work
    # ------------------------------------------------------------------
    def post_task(
        self, fn: Callable[..., Any], *args: Any, expedited: bool = False
    ) -> None:
        """Queue a task ``fn(ctx, *args)``; start it if the PE is idle."""
        if self.dead:
            # Post-accept rule: work handed to a dead PE was already
            # retired by its producer, so it is counted unconditionally.
            items, messages = _task_items(fn, args)
            faults = self.rt.faults
            if faults is not None:
                faults.note_crash_items(items, messages)
            return
        lane = self._expedited if expedited else self._normal
        lane.append((fn, args))
        if not self._busy:
            self._start_next()

    def deliver_message(self, msg: "NetMessage", extra_charge_ns: float = 0.0) -> None:
        """Queue the handler task for an arriving network message.

        ``extra_charge_ns`` is charged before the handler runs — used in
        non-SMP mode where the worker pays its own receive progress cost.
        """
        if self.dead:
            # The message was accepted (and acked, if protected) before
            # reaching the PE queue — its sender has retired it, so the
            # crash ledger must absorb it here unconditionally.
            faults = self.rt.faults
            if faults is not None:
                faults.note_crash_items(_payload_items(msg), 1)
            return
        stats = self.stats
        stats.messages_received += 1
        stats.queued_bytes += msg.size_bytes
        if stats.queued_bytes > stats.queued_bytes_hwm:
            stats.queued_bytes_hwm = stats.queued_bytes
        span = msg.span
        if span is not None:
            span.pe_arrival = self.rt.engine.now
        tracer = self.rt.engine.tracer
        if tracer is not None and tracer.wants("msg"):
            tracer.record(
                "msg", hop="recv", wid=self.wid, msg_id=msg.msg_id,
                t=self.rt.engine.now,
            )
        handler = self.rt.handler_for(msg.kind)
        self.post_task(
            self._run_message_handler,
            handler,
            msg,
            extra_charge_ns,
            expedited=msg.expedited,
        )

    @staticmethod
    def _run_message_handler(
        ctx: ExecContext, handler: Callable, msg: "NetMessage", extra_charge_ns: float
    ) -> None:
        ctx.worker.stats.queued_bytes -= msg.size_bytes
        if extra_charge_ns:
            ctx.charge(extra_charge_ns)
        handler(ctx, msg)

    # ------------------------------------------------------------------
    # Server loop
    # ------------------------------------------------------------------
    def _start_next(self) -> None:
        """Start the next queued task, or record the busy->idle
        transition (firing idle hooks) when both lanes are empty.

        Runs when work is posted to an idle PE and, scheduled at the
        completion time, after every task."""
        if self.dead:
            # An in-flight task's completion event may still fire after
            # the crash; swallow it without idle-hook side effects.
            self._busy = False
            return
        if self._expedited:
            fn, args = self._expedited.popleft()
        elif self._normal:
            fn, args = self._normal.popleft()
        else:
            was_busy = self._busy
            self._busy = False
            if was_busy:
                self.stats.idle_transitions += 1
                self._run_idle_hooks()
            return
        self._busy = True
        engine = self.rt.engine
        now = engine.now
        ctx = ExecContext(self, now)
        fn(ctx, *args)
        cost = ctx.cost * self._noise_mult
        finish = now + cost
        call_at = engine.call_at
        for delay, efn, eargs in ctx._emissions:
            call_at(finish + delay, efn, eargs)
        stats = self.stats
        stats.tasks_executed += 1
        stats.busy_ns += cost
        if self.task_hook is not None:
            self.task_hook(self, fn, ctx)
        call_at(finish, self._start_next_cb)

    def _run_idle_hooks(self) -> None:
        for hook in self.idle_hooks:
            hook(self)
            if self._busy:
                return

    # ------------------------------------------------------------------
    # Crash fabric
    # ------------------------------------------------------------------
    def on_process_crashed(self) -> None:
        """Kill this PE: drain both lanes into the crash-loss ledger."""
        if self.dead:
            return
        self.dead = True
        items = 0
        messages = 0
        for lane in (self._expedited, self._normal):
            for fn, args in lane:
                n, m = _task_items(fn, args)
                items += n
                messages += m
            lane.clear()
        self.stats.queued_bytes = 0
        faults = self.rt.faults
        if faults is not None:
            faults.note_crash_items(items, messages)

    def on_process_restarted(self) -> None:
        """Revive the PE with empty lanes; lost work stays lost."""
        self.dead = False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def busy(self) -> bool:
        """Whether the PE is currently executing a task."""
        return self._busy

    @property
    def queued(self) -> int:
        """Tasks waiting in both lanes."""
        return len(self._normal) + len(self._expedited)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Worker {self.wid} busy={self._busy} queued={self.queued}>"
