"""WsP: like WPs, but the *source worker* groups items by destination
PE before sending (paper Fig 6).

Buffer placement and counts are identical to WPs; the O(g + t) grouping
cost moves from the receiving PE to the sending PE. The destination only
performs a cheap per-section dispatch. The paper observes WsP scaling
slightly worse than WPs on histogramming because the grouping work
happens on the (already busy) generating side.
"""

from __future__ import annotations

from collections import defaultdict

from repro.tram.item import BulkBatch, ItemBatch
from repro.tram.schemes.wps import WPsScheme


class WsPScheme(WPsScheme):
    """Worker-to-process aggregation, source-side grouping."""

    name = "WsP"

    def _prepare_payload(self, ctx, payload, count: int) -> float:
        """Group the outgoing batch by destination PE at the source.

        Returns the grouping nanoseconds charged (span ``src_group``).
        """
        costs = self.rt.costs
        group_ns = costs.group_cost_ns(count, self._t)
        ctx.charge(group_ns)
        self.stats.group_elements += count + self._t
        if isinstance(payload, ItemBatch):
            by_dst = defaultdict(list)
            for item in payload.items:
                by_dst[item.dst].append(item)
            payload.sections = list(by_dst.items())
            payload.grouped = True
        elif isinstance(payload, BulkBatch):
            # Count buffers already hold per-destination marginals; the
            # flag tells the receiver the grouping work was paid here.
            payload.grouped = True
        return group_ns
