"""Items and the batch payloads that carry them.

Following the paper's vocabulary: an **item** is the short application
message handed to TramLib; a **message** is the aggregated unit the
runtime transports. Two fidelity levels exist:

* **per-item** (:class:`Item` / :class:`ItemBatch`) — every item is a
  Python object with its own creation timestamp and payload. Used by the
  latency-sensitive applications (SSSP, PHOLD) and by most tests.
* **bulk/flow** (:class:`BulkBatch`) — only *counts* (per destination
  worker / per source worker) plus aggregate timestamp moments travel.
  Used by the streaming benchmarks (histogram, index-gather) so that a
  million-item run costs O(messages) simulation work, not O(items)
  (DESIGN.md §2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Sequence


@dataclass(slots=True)
class Item:
    """One application-level short message.

    Attributes
    ----------
    dst:
        Global destination worker id.
    src:
        Global source worker id.
    created:
        Simulated time the application inserted the item.
    payload:
        Opaque application data.
    priority:
        Optional priority for priority-aware flushing (lower = more
        urgent; e.g. the tentative distance in SSSP).
    """

    dst: int
    src: int
    created: float
    payload: Any = None
    priority: Optional[float] = None


@dataclass(slots=True)
class ItemBatch:
    """Per-item payload of an aggregated message.

    ``grouped`` is ``True`` when the source already sorted the items by
    destination PE (the WsP scheme), in which case ``sections`` holds
    ``(dst_worker, [items...])`` runs and the destination skips its own
    grouping pass.
    """

    items: list
    grouped: bool = False
    sections: Optional[list] = None

    @property
    def count(self) -> int:
        return len(self.items)


@dataclass(slots=True)
class BulkBatch:
    """Count-level payload of an aggregated message.

    The id and count fields are plain ``int`` sequences; ids are often
    the ``range`` of a process's or node's workers.

    Attributes
    ----------
    count:
        Total items carried.
    dst_ids:
        Global worker ids of the destination slots (``None`` for
        worker-addressed messages, where the envelope names the one
        destination).
    dst_counts:
        Items per destination slot, aligned with ``dst_ids``.
    src_ids / src_counts:
        Source-worker breakdown (who contributed the items) — needed by
        request/response workloads (index-gather) to route replies.
    t_sum:
        Sum of the items' creation times; together with ``count`` and the
        delivery time this yields the exact mean item latency without
        storing per-item stamps.
    t_min:
        Earliest creation time in the batch (bounds max latency).
    grouped:
        ``True`` when the source pre-grouped by destination (WsP): the
        destination then skips its own grouping pass.
    """

    count: int
    dst_ids: Optional[Sequence[int]]
    dst_counts: Optional[Sequence[int]]
    src_ids: Optional[Sequence[int]]
    src_counts: Optional[Sequence[int]]
    t_sum: float
    t_min: float
    grouped: bool = False
