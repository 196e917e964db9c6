"""Placeholder optimistic PDES engine.

The paper: "we do not perform real rollbacks; instead we only keep track
of out-of-order messages received." Each worker hosts a set of logical
processes (LPs); events carry virtual timestamps. Events are executed in
the order the worker can see them (smallest available timestamp first);
an event whose timestamp precedes its LP's last executed timestamp is a
**rejected/out-of-order event** — the proxy for a rollback. Aggregation
latency directly controls how many arrivals are late, which is what
Fig 18 compares across schemes.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import List, Tuple


@dataclass
class LpState:
    """One logical process."""

    lp_id: int
    last_ts: float = -float("inf")
    executed: int = 0
    rejected: int = 0


@dataclass
class OptimisticEngine:
    """Per-worker event pool executing in locally-visible ts order."""

    lps: List[LpState]
    #: Future event list: (virtual_ts, seq, lp_index). ``seq`` keeps the
    #: ordering deterministic for equal timestamps.
    fel: List[Tuple[float, int, int]] = field(default_factory=list)
    _seq: int = 0

    def enqueue(self, lp_index: int, virtual_ts: float) -> None:
        """Add an arriving event for a local LP."""
        heapq.heappush(self.fel, (virtual_ts, self._seq, lp_index))
        self._seq += 1

    @property
    def has_events(self) -> bool:
        return bool(self.fel)

    def execute_next(self) -> Tuple[LpState, float, bool]:
        """Execute the smallest-timestamp available event.

        Returns
        -------
        (lp, virtual_ts, in_order):
            ``in_order`` is False when the event arrived after its LP had
            already executed a later timestamp — the rollback proxy.
        """
        virtual_ts, _, lp_index = heapq.heappop(self.fel)
        lp = self.lps[lp_index]
        in_order = virtual_ts >= lp.last_ts
        if in_order:
            lp.last_ts = virtual_ts
        else:
            lp.rejected += 1
        lp.executed += 1
        return lp, virtual_ts, in_order

    @property
    def total_rejected(self) -> int:
        return sum(lp.rejected for lp in self.lps)

    @property
    def total_executed(self) -> int:
        return sum(lp.executed for lp in self.lps)
