"""WPs: per source worker, one buffer per destination *process*;
items are grouped by PE at the destination (paper Fig 5).

Compared with WW, the per-worker buffer count drops from ``N*t`` to
``N`` (``N`` processes, ``t`` workers each): buffers fill ``t`` times
faster, end-of-phase flushes send ``t`` times fewer messages, and the
memory overhead is ``g*m*N`` per core (§III-C). The price is an
O(g + t) grouping pass on the receiving PE before local section sends.
"""

from __future__ import annotations

from typing import Iterable, List

from repro.errors import ConfigError
from repro.tram.item import Item
from repro.tram.schemes.base import Buffer, SchemeBase, nonzero_sections


class WPsScheme(SchemeBase):
    """Worker-to-process aggregation, destination-side grouping."""

    name = "WPs"
    worker_addressed = False

    def __init__(self, rt, config, deliver_item=None, deliver_bulk=None) -> None:
        super().__init__(rt, config, deliver_item, deliver_bulk)
        #: Per source worker: {dst_process: buffer}.
        self._by_worker = [dict() for _ in range(rt.machine.total_workers)]

    # ------------------------------------------------------------------
    def _get(self, src: int, dst_process: int, item_mode: bool) -> Buffer:
        bufs = self._by_worker[src]
        buf = bufs.get(dst_process)
        if buf is None:
            dest = (dst_process, None)
            if item_mode:
                buf = self._new_item_buffer(dest, owner=src)
            else:
                dst_ids = self.rt.machine.workers_of_process(dst_process)
                buf = self._new_count_buffer(dest, dst_ids=dst_ids, owner=src)
            bufs[dst_process] = buf
        elif item_mode != hasattr(buf, "items"):
            raise ConfigError(
                "do not mix insert() and insert_bulk() on one scheme instance"
            )
        return buf

    # ------------------------------------------------------------------
    def _insert_item(self, ctx, src: int, item: Item) -> None:
        dst_process = self.rt.machine.process_of_worker(item.dst)
        buf = self._get(src, dst_process, item_mode=True)
        ctx.charge(self.rt.costs.item_insert_ns * self._insert_penalty(src))
        buf.add(item)
        self._arm_timer(buf, src)
        if not self._maybe_priority_flush(ctx, buf, item):
            self._drain_full(ctx, buf)

    def _insert_bulk(self, ctx, src: int, counts: List[int], total: int) -> None:
        ctx.charge(
            total * self.rt.costs.item_insert_ns * self._insert_penalty(src)
        )
        t = self.rt.machine.workers_per_process
        now = ctx.now
        for p, section, n in nonzero_sections(counts, t):
            buf = self._get(src, p, item_mode=False)
            buf.add_counts(n, now, dst_slot_counts=section)
            self._arm_timer(buf, src)
            self._drain_full(ctx, buf)

    def _flush_worker(self, ctx, wid: int) -> None:
        if self._defer_if_gated(wid):
            return
        for buf in self._by_worker[wid].values():
            if not buf.empty:
                self._send_chunk(ctx, buf, buf.count, full=False)

    def _has_pending(self, wid: int) -> bool:
        return any(not buf.empty for buf in self._by_worker[wid].values())

    def _all_buffers(self) -> Iterable[Buffer]:
        for bufs in self._by_worker:
            yield from bufs.values()
