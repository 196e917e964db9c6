"""Node-level aggregation schemes (the paper's §III-B extension).

    "The same grouping techniques can be extended one level up to the
    physical node, if it houses multiple processes."

The paper defers these; we implement them as extensions:

* :class:`WNsScheme` ("WNs") — each source *worker* keeps one buffer per
  destination **node**. The message lands on one process of that node
  (round-robin); the receiving PE groups by destination worker, local-
  sends the sections for its own process, and *forwards* the sections
  for sibling processes as intra-node messages (pre-grouped, so the
  second hop only dispatches).
* :class:`NNScheme` ("NN") — one **node-shared** buffer per destination
  node on each source node, filled by every worker of the node through
  atomics (contention now spans ``ppn*t`` workers — PP's trade-off,
  amplified).

Compared with WPs/PP these cut the buffer count by another factor of
``processes_per_node`` (fewer, fuller buffers; fewer flush messages)
at the price of an extra intra-node forwarding hop and, for NN,
node-wide atomic contention.
"""

from __future__ import annotations

import operator
from typing import Iterable, List

from repro.errors import ConfigError
from repro.network.message import NetMessage
from repro.obs.spans import MsgSpan
from repro.tram.buffer import proportional_take
from repro.tram.item import BulkBatch, Item, ItemBatch
from repro.tram.schemes.base import Buffer, SchemeBase, nonzero_sections


class WNsScheme(SchemeBase):
    """Worker-to-node aggregation, destination-side grouping + forward."""

    name = "WNs"
    worker_addressed = False

    def __init__(self, rt, config, deliver_item=None, deliver_bulk=None) -> None:
        super().__init__(rt, config, deliver_item, deliver_bulk)
        #: Per source worker: {dst_node: buffer}.
        self._by_worker = [dict() for _ in range(rt.machine.total_workers)]
        #: Round-robin pointer per (src worker) for target-process choice.
        self._rr = [0] * rt.machine.total_workers
        rt.register_handler(self._ns + ".n", self._on_node_msg)

    # ------------------------------------------------------------------
    # Buffering
    # ------------------------------------------------------------------
    def _get(self, src: int, dst_node: int, item_mode: bool) -> Buffer:
        bufs = self._by_worker[src]
        buf = bufs.get(dst_node)
        if buf is None:
            dest = (dst_node, None)  # routed at emission time
            if item_mode:
                buf = self._new_item_buffer(dest, owner=src)
            else:
                dst_ids = self.rt.machine.workers_of_node(dst_node)
                buf = self._new_count_buffer(dest, dst_ids=dst_ids, owner=src)
            bufs[dst_node] = buf
        elif item_mode != hasattr(buf, "items"):
            raise ConfigError(
                "do not mix insert() and insert_bulk() on one scheme instance"
            )
        return buf

    def _insert_item(self, ctx, src: int, item: Item) -> None:
        dst_node = self.rt.machine.node_of_worker(item.dst)
        buf = self._get(src, dst_node, item_mode=True)
        ctx.charge(self.rt.costs.item_insert_ns * self._insert_penalty(src))
        buf.add(item)
        self._arm_timer(buf, src)
        if not self._maybe_priority_flush(ctx, buf, item):
            self._drain_full(ctx, buf)

    def _insert_bulk(self, ctx, src: int, counts: List[int], total: int) -> None:
        ctx.charge(
            total * self.rt.costs.item_insert_ns * self._insert_penalty(src)
        )
        wpn = self.rt.machine.workers_per_node
        now = ctx.now
        for node, section, n in nonzero_sections(counts, wpn):
            buf = self._get(src, node, item_mode=False)
            buf.add_counts(n, now, dst_slot_counts=section)
            self._arm_timer(buf, src)
            self._drain_full(ctx, buf)

    # ------------------------------------------------------------------
    # Emission: route the node-addressed message to one of its processes
    # ------------------------------------------------------------------
    def _send_chunk(self, ctx, buf: Buffer, k: int, *, full: bool) -> None:
        k = min(k, buf.count)
        if k == 0:
            return
        if hasattr(buf, "items"):
            items = buf.drain(k)
            payload = ItemBatch(items)
            count = len(items)
        else:
            payload = buf.take(k)
            count = payload.count
        if buf.empty and buf.timer_event is not None:
            self._release_timer(buf)
        dst_node, _ = buf.dest
        src = ctx.worker.wid
        procs = self.rt.machine.processes_of_node(dst_node)
        dead = self._dead_peers
        if dead is not None:
            alive = [p for p in procs if p not in dead]
            if not alive:
                # The whole node died under us: nothing there can
                # receive or forward. Drop and loss-account.
                self._note_dead_peer_drop(count)
                return
            if len(alive) < len(procs):
                # Round-robin failover: steer to a surviving sibling.
                self.stats.failover_reroutes += 1
            procs = alive
        dst_process = procs[self._rr[src] % len(procs)]
        self._rr[src] += 1
        self._emit_node_message(ctx, payload, count, dst_process, full=full)

    def _emit_node_message(self, ctx, payload, count, dst_process, *, full) -> None:
        costs = self.rt.costs
        size = costs.message_bytes(count, self.config.item_bytes)
        msg = NetMessage(
            kind=self._ns + ".n",
            src_worker=ctx.worker.wid,
            dst_process=dst_process,
            dst_worker=None,
            size_bytes=size,
            payload=payload,
            expedited=self.config.expedited,
        )
        if self.stages is not None:
            msg.span = MsgSpan()
        ctx.charge(costs.pack_msg_ns)
        if not self.rt.machine.smp:
            ctx.charge(costs.nonsmp_send_service_ns(size))
        if full:
            self.stats.messages_full += 1
        else:
            self.stats.messages_flush += 1
        self.stats.bytes_sent += size
        ctx.emit(self.rt.transport.send, msg)

    # ------------------------------------------------------------------
    # Destination: group across the node, deliver local, forward rest
    # ------------------------------------------------------------------
    def _on_node_msg(self, ctx, msg: NetMessage) -> None:
        machine = self.rt.machine
        costs = self.rt.costs
        me_process = machine.process_of_worker(ctx.worker.wid)
        node = machine.node_of_process(me_process)
        wpn = machine.workers_per_node
        payload = msg.payload

        if isinstance(payload, ItemBatch):
            ctx.charge(costs.group_cost_ns(payload.count, wpn))
            self.stats.group_elements += payload.count + wpn
            by_process: dict = {}
            for item in payload.items:
                by_process.setdefault(
                    machine.process_of_worker(item.dst), []
                ).append(item)
            if self.stages is not None:
                # Attribute the span to the locally delivered portion
                # only; forwarded items restart attribution on the
                # intra-node leg's fresh span.
                self._obs_items_msg(ctx, msg, by_process.get(me_process, ()))
            dead = self._dead_peers
            for pid, items in by_process.items():
                if pid == me_process:
                    self._dispatch_local_sections(ctx, items)
                elif dead is not None and pid in dead:
                    # Sibling died while the batch was in flight; its
                    # items are undeliverable (they target its workers).
                    self._note_dead_peer_drop(len(items))
                else:
                    self._forward_items(ctx, pid, items)
            return

        # Bulk: split per destination process, pro-rata on sources/time.
        ctx.charge(costs.group_cost_ns(payload.count, wpn))
        self.stats.group_elements += payload.count + wpn
        src_ids, remaining_src = self._src_breakdown(msg, payload)
        remaining_total = payload.count
        mean_t = payload.t_sum / payload.count
        t = machine.workers_per_process
        dst_ids = payload.dst_ids
        dst_counts = payload.dst_counts
        for lo, pid in zip(range(0, wpn, t), machine.processes_of_node(node)):
            section = dst_counts[lo : lo + t]
            n = sum(section)
            if n == 0:
                continue
            section_src = proportional_take(remaining_src, n, remaining_total)
            remaining_src = list(map(operator.sub, remaining_src, section_src))
            remaining_total -= n
            sub = BulkBatch(
                count=n,
                dst_ids=dst_ids[lo : lo + t],
                dst_counts=section,
                src_ids=src_ids,
                src_counts=section_src,
                t_sum=n * mean_t,
                t_min=payload.t_min,
                grouped=True,
            )
            if pid == me_process:
                if self.stages is not None:
                    self._obs_msg(ctx, msg, sub.count, sub.t_sum)
                self._dispatch_local_bulk(ctx, sub)
            elif self._dead_peers is not None and pid in self._dead_peers:
                self._note_dead_peer_drop(sub.count)
            else:
                self._forward_bulk(ctx, pid, sub)

    # -- local dispatch within the receiving process ---------------------
    def _dispatch_local_sections(self, ctx, items) -> None:
        me = ctx.worker.wid
        by_dst: dict = {}
        for item in items:
            by_dst.setdefault(item.dst, []).append(item)
        for dst, section in by_dst.items():
            if dst == me:
                self._deliver_items_here(ctx, section)
            else:
                ctx.charge(self.rt.costs.local_msg_ns)
                self.stats.local_sections += 1
                ctx.emit(
                    self._post, dst, self._section_items_task, section, ctx.now
                )

    def _dispatch_local_bulk(self, ctx, sub: BulkBatch) -> None:
        me = ctx.worker.wid
        mean_t = sub.t_sum / sub.count
        remaining_src = sub.src_counts
        remaining_total = sub.count
        for dst, n in zip(sub.dst_ids, sub.dst_counts):
            if not n:
                continue
            section_src = proportional_take(remaining_src, n, remaining_total)
            remaining_src = list(map(operator.sub, remaining_src, section_src))
            remaining_total -= n
            if dst == me:
                self._deliver_bulk_here(
                    ctx, n, sub.src_ids, section_src, n * mean_t, sub.t_min
                )
            else:
                ctx.charge(self.rt.costs.local_msg_ns)
                self.stats.local_sections += 1
                ctx.emit(
                    self._post, dst, self._section_bulk_task,
                    n, sub.src_ids, section_src, n * mean_t, sub.t_min,
                    ctx.now,
                )

    # -- forwarding to sibling processes on the node ---------------------
    def _forward_items(self, ctx, dst_process: int, items) -> None:
        items.sort(key=lambda it: it.dst)
        sections: dict = {}
        for item in items:
            sections.setdefault(item.dst, []).append(item)
        payload = ItemBatch(items, grouped=True, sections=list(sections.items()))
        self._forward(ctx, dst_process, payload, len(items))

    def _forward_bulk(self, ctx, dst_process: int, sub: BulkBatch) -> None:
        self._forward(ctx, dst_process, sub, sub.count)

    def _forward(self, ctx, dst_process: int, payload, count: int) -> None:
        costs = self.rt.costs
        size = costs.message_bytes(count, self.config.item_bytes)
        msg = NetMessage(
            kind=self._ns + ".p",  # handled by the base process handler
            src_worker=ctx.worker.wid,
            dst_process=dst_process,
            dst_worker=None,
            size_bytes=size,
            payload=payload,
            expedited=self.config.expedited,
        )
        if self.stages is not None:
            # Fresh span: the forwarded leg restarts attribution, so
            # time up to this hop lands in the next leg's src_buffer.
            msg.span = MsgSpan()
        ctx.charge(costs.pack_msg_ns)
        self.stats.bytes_sent += size
        self.stats.messages_forwarded += 1
        ctx.emit(self.rt.transport.send, msg)

    # ------------------------------------------------------------------
    # Crash fabric
    # ------------------------------------------------------------------
    def _on_peer_dead_buffers(self, pid: int) -> None:
        """Node-addressed buffers survive a single process death — the
        round-robin emitter steers around the dead sibling. Only a node
        with no surviving process makes its buffers undeliverable."""
        machine = self.rt.machine
        dead = self._dead_peers
        node = machine.node_of_process(pid)
        if any(p not in dead for p in machine.processes_of_node(node)):
            return
        dropped = 0
        for buf in self._all_buffers():
            if buf.count and buf.dest[0] == node:
                dropped += self._discard_buffer(buf)
        if dropped:
            self._note_dead_peer_drop(dropped)

    # ------------------------------------------------------------------
    # Flush plumbing
    # ------------------------------------------------------------------
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


class NNScheme(WNsScheme):
    """Node-to-node aggregation: node-shared source buffers (atomics)."""

    name = "NN"

    def __init__(self, rt, config, deliver_item=None, deliver_bulk=None) -> None:
        super().__init__(rt, config, deliver_item, deliver_bulk)
        #: Per source node: {dst_node: buffer}.
        self._by_node = [dict() for _ in range(rt.machine.nodes)]
        self._done_counts = [0] * rt.machine.nodes
        #: Done-signals needed before the coordinated flush fires; drops
        #: when a process on the node dies (its workers can never
        #: signal), so survivors are not deadlocked waiting on ghosts.
        self._done_threshold = [rt.machine.workers_per_node] * rt.machine.nodes

    def _get(self, src: int, dst_node: int, item_mode: bool) -> Buffer:
        machine = self.rt.machine
        src_node = machine.node_of_worker(src)
        bufs = self._by_node[src_node]
        buf = bufs.get(dst_node)
        if buf is None:
            dest = (dst_node, None)
            owner = ("n", src_node)
            if item_mode:
                buf = self._new_item_buffer(dest, owner=owner)
            else:
                dst_ids = machine.workers_of_node(dst_node)
                src_ids = machine.workers_of_node(src_node)
                buf = self._new_count_buffer(
                    dest, dst_ids=dst_ids, src_ids=src_ids, owner=owner
                )
            bufs[dst_node] = buf
        elif item_mode != hasattr(buf, "items"):
            raise ConfigError(
                "do not mix insert() and insert_bulk() on one scheme instance"
            )
        return buf

    def _atomic_charge(self) -> float:
        """Node-wide shared buffers: contention spans all node workers."""
        machine = self.rt.machine
        return self.rt.costs.pp_insert_ns(machine.workers_per_node)

    def _insert_item(self, ctx, src: int, item: Item) -> None:
        dst_node = self.rt.machine.node_of_worker(item.dst)
        buf = self._get(src, dst_node, item_mode=True)
        src_node = self.rt.machine.node_of_worker(src)
        ctx.charge(self._atomic_charge() * self._insert_penalty(("n", src_node)))
        self.stats.atomic_inserts += 1
        buf.add(item)
        self._arm_timer(buf, src)
        if not self._maybe_priority_flush(ctx, buf, item):
            self._drain_full(ctx, buf)

    def _insert_bulk(self, ctx, src: int, counts: List[int], total: int) -> None:
        machine = self.rt.machine
        src_node = machine.node_of_worker(src)
        ctx.charge(
            total * self._atomic_charge() * self._insert_penalty(("n", src_node))
        )
        self.stats.atomic_inserts += total
        wpn = machine.workers_per_node
        src_slot = src - machine.workers_of_node(src_node).start
        now = ctx.now
        for node, section, n in nonzero_sections(counts, wpn):
            buf = self._get(src, node, item_mode=False)
            buf.add_counts(n, now, dst_slot_counts=section, src_slot=src_slot)
            self._arm_timer(buf, src)
            self._drain_full(ctx, buf)

    def flush_when_done(self, ctx) -> None:
        """Coordinated flush across the whole source node."""
        node = self.rt.machine.node_of_worker(ctx.worker.wid)
        self._done_counts[node] += 1
        if self._done_counts[node] >= self._done_threshold[node]:
            self._done_counts[node] = 0
            self.stats.flushes_requested += 1
            self._flush_worker(ctx, ctx.worker.wid)

    def on_process_crashed(self, pid: int) -> None:
        super().on_process_crashed(pid)
        node = self.rt.machine.node_of_process(pid)
        self._done_threshold[node] -= self.rt.machine.workers_per_process

    def _flush_worker(self, ctx, wid: int) -> None:
        if self._defer_if_gated(wid):
            return
        node = self.rt.machine.node_of_worker(wid)
        for buf in self._by_node[node].values():
            if not buf.empty:
                self._send_chunk(ctx, buf, buf.count, full=False)

    def _has_pending(self, wid: int) -> bool:
        node = self.rt.machine.node_of_worker(wid)
        return any(not buf.empty for buf in self._by_node[node].values())

    def _all_buffers(self) -> Iterable[Buffer]:
        for bufs in self._by_node:
            yield from bufs.values()
