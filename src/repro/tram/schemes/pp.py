"""PP: one *shared* buffer per destination process on each source
process, filled by all of the process's workers through atomics
(paper Fig 7).

This is the most SMP-aware scheme: with ``t`` workers feeding each
buffer, buffers fill ``t`` times faster than WPs (latency of a buffered
item drops by the same factor — the paper's IG result PP < WPs < WW) and
an end-of-phase flush sends only ``N`` messages per *process* instead of
per worker. The price is an atomic slot claim per insert whose cost
grows with contention: ``atomic_ns * (1 + contention_coeff * (t - 1))``.

Buffers live in the owning process's shared heap
(:attr:`repro.runtime.proc.Process.shared`), reflecting that any of its
workers may fill — and send — them.
"""

from __future__ import annotations

from typing import Iterable, List

from repro.errors import ConfigError
from repro.tram.item import Item
from repro.tram.schemes.base import Buffer, SchemeBase, nonzero_sections


class PPScheme(SchemeBase):
    """Process-to-process aggregation through shared buffers."""

    name = "PP"
    worker_addressed = False

    def __init__(self, rt, config, deliver_item=None, deliver_bulk=None) -> None:
        super().__init__(rt, config, deliver_item, deliver_bulk)
        self._shared_key = self._ns  # namespace within Process.shared
        self._done_counts = [0] * rt.machine.total_processes

    # ------------------------------------------------------------------
    def _proc_bufs(self, pid: int) -> dict:
        shared = self.rt.process(pid).shared
        bufs = shared.get(self._shared_key)
        if bufs is None:
            bufs = shared[self._shared_key] = {}
        return bufs

    def _get(self, src_process: int, dst_process: int, item_mode: bool) -> Buffer:
        bufs = self._proc_bufs(src_process)
        buf = bufs.get(dst_process)
        if buf is None:
            dest = (dst_process, None)
            machine = self.rt.machine
            owner = ("p", src_process)
            if item_mode:
                buf = self._new_item_buffer(dest, owner=owner)
            else:
                dst_ids = machine.workers_of_process(dst_process)
                src_ids = machine.workers_of_process(src_process)
                buf = self._new_count_buffer(
                    dest, dst_ids=dst_ids, src_ids=src_ids, owner=owner
                )
            bufs[dst_process] = buf
        elif item_mode != hasattr(buf, "items"):
            raise ConfigError(
                "do not mix insert() and insert_bulk() on one scheme instance"
            )
        return buf

    # ------------------------------------------------------------------
    def _insert_item(self, ctx, src: int, item: Item) -> None:
        machine = self.rt.machine
        src_process = machine.process_of_worker(src)
        dst_process = machine.process_of_worker(item.dst)
        buf = self._get(src_process, dst_process, item_mode=True)
        ctx.charge(
            self.rt.costs.pp_insert_ns(machine.workers_per_process)
            * self._insert_penalty(("p", src_process))
        )
        self.stats.atomic_inserts += 1
        buf.add(item)
        self._arm_timer(buf, src)
        if not self._maybe_priority_flush(ctx, buf, item):
            self._drain_full(ctx, buf)

    def _insert_bulk(self, ctx, src: int, counts: List[int], total: int) -> None:
        machine = self.rt.machine
        t = machine.workers_per_process
        src_process = machine.process_of_worker(src)
        ctx.charge(
            total
            * self.rt.costs.pp_insert_ns(t)
            * self._insert_penalty(("p", src_process))
        )
        self.stats.atomic_inserts += total
        src_slot = machine.local_rank_of_worker(src)
        now = ctx.now
        for p, section, n in nonzero_sections(counts, t):
            buf = self._get(src_process, p, item_mode=False)
            buf.add_counts(n, now, dst_slot_counts=section, src_slot=src_slot)
            self._arm_timer(buf, src)
            self._drain_full(ctx, buf)

    def _flush_worker(self, ctx, wid: int) -> None:
        """Flush the calling worker's *process* buffers (shared)."""
        if self._defer_if_gated(wid):
            return
        pid = self.rt.machine.process_of_worker(wid)
        for buf in self._proc_bufs(pid).values():
            if not buf.empty:
                self._send_chunk(ctx, buf, buf.count, full=False)

    def flush_when_done(self, ctx) -> None:
        """Coordinated end-of-phase flush (``doneInserting`` style).

        Each worker signals once; the shared buffers flush when the last
        worker of the process signals — at most one flush message per
        destination process, matching the paper's PP flush analysis.
        """
        pid = self.rt.machine.process_of_worker(ctx.worker.wid)
        self._done_counts[pid] += 1
        if self._done_counts[pid] >= self.rt.machine.workers_per_process:
            self._done_counts[pid] = 0
            self.stats.flushes_requested += 1
            self._flush_worker(ctx, ctx.worker.wid)

    def _buffers_hosted_by(self, pid: int) -> Iterable[Buffer]:
        """A dead process takes its shared heap — and every source
        buffer pooled in it — down with it."""
        bufs = self._proc_bufs(pid)
        for buf in list(bufs.values()):
            yield buf
        bufs.clear()
        self._done_counts[pid] = 0

    def _has_pending(self, wid: int) -> bool:
        pid = self.rt.machine.process_of_worker(wid)
        return any(not buf.empty for buf in self._proc_bufs(pid).values())

    def _all_buffers(self) -> Iterable[Buffer]:
        for pid in range(self.rt.machine.total_processes):
            yield from self._proc_bufs(pid).values()
