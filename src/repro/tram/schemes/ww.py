"""WW: per source worker, one buffer per destination *worker*.

The SMP-unaware baseline (paper Fig 4). Each of the ``w`` workers keeps
up to ``w - 1`` buffers, so the machine-wide buffer count grows as
``w^2`` — which is exactly why end-of-phase flushes dominate at scale
(one mostly-empty message per destination *worker*; see the paper's
Fig 9/11 analysis) and why the memory overhead is ``g*m*N*t`` per core
(§III-C).
"""

from __future__ import annotations

from typing import Iterable, List

from repro.errors import ConfigError
from repro.tram.item import Item
from repro.tram.schemes.base import Buffer, SchemeBase


class WWScheme(SchemeBase):
    """Worker-to-worker aggregation (SMP-unaware)."""

    name = "WW"
    worker_addressed = True

    def __init__(self, rt, config, deliver_item=None, deliver_bulk=None) -> None:
        super().__init__(rt, config, deliver_item, deliver_bulk)
        #: Per source worker: {dst_worker: buffer}.
        self._by_worker = [dict() for _ in range(rt.machine.total_workers)]

    # ------------------------------------------------------------------
    def _get(self, src: int, dst: int, item_mode: bool) -> Buffer:
        bufs = self._by_worker[src]
        buf = bufs.get(dst)
        if buf is None:
            dest = (self.rt.machine.process_of_worker(dst), dst)
            buf = (
                self._new_item_buffer(dest, owner=src)
                if item_mode
                else self._new_count_buffer(dest, owner=src)
            )
            bufs[dst] = buf
        elif item_mode != hasattr(buf, "items"):
            raise ConfigError(
                "do not mix insert() and insert_bulk() on one scheme instance"
            )
        return buf

    # ------------------------------------------------------------------
    def _insert_item(self, ctx, src: int, item: Item) -> None:
        buf = self._get(src, item.dst, item_mode=True)
        ctx.charge(self.rt.costs.item_insert_ns * self._insert_penalty(src))
        buf.add(item)
        self._arm_timer(buf, src)
        if not self._maybe_priority_flush(ctx, buf, item):
            self._drain_full(ctx, buf)

    def _insert_bulk(self, ctx, src: int, counts: List[int], total: int) -> None:
        ctx.charge(
            total * self.rt.costs.item_insert_ns * self._insert_penalty(src)
        )
        now = ctx.now
        for dst, n in enumerate(counts):
            if not n:
                continue
            buf = self._get(src, dst, item_mode=False)
            buf.add_counts(n, now)
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
