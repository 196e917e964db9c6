"""Quiescence accounting.

The engine's natural notion of quiescence is event-queue exhaustion; the
:class:`QDCounter` adds an *application-level* check: every produced item
must eventually be consumed. Applications create one counter, tick it on
item creation/consumption, and assert :attr:`balanced` after the run —
this is how the test suite catches lost or duplicated deliveries.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import QuiescenceError


@dataclass
class QDCounter:
    """Produced/consumed/lost item accounting.

    Raises :class:`~repro.errors.QuiescenceError` immediately if
    consumption (plus acknowledged loss) ever exceeds production
    (duplicate delivery).

    ``lost`` is only ever non-zero on fault-injected runs: the fault
    fabric and the reliability layer report unrecoverable losses through
    :meth:`note_lost` (see ``RuntimeSystem.wire_loss_accounting``), so a
    degraded run still terminates with honest books instead of waiting
    forever for items that can no longer arrive.
    """

    produced: int = 0
    consumed: int = 0
    lost: int = 0

    def produce(self, n: int = 1) -> None:
        """Record ``n`` items entering the system."""
        if n < 0:
            raise QuiescenceError(f"cannot produce {n} items")
        self.produced += n

    def consume(self, n: int = 1) -> None:
        """Record ``n`` items delivered to the application."""
        if n < 0:
            raise QuiescenceError(f"cannot consume {n} items")
        self.consumed += n
        if self.consumed + self.lost > self.produced:
            raise QuiescenceError(
                f"consumed {self.consumed} + lost {self.lost} > produced "
                f"{self.produced}: duplicate delivery detected"
            )

    def note_lost(self, n: int = 1) -> None:
        """Record ``n`` items destroyed by faults, never to be delivered."""
        if n < 0:
            raise QuiescenceError(f"cannot lose {n} items")
        self.lost += n
        if self.consumed + self.lost > self.produced:
            raise QuiescenceError(
                f"consumed {self.consumed} + lost {self.lost} > produced "
                f"{self.produced}: loss double-counted with a delivery"
            )

    @property
    def balanced(self) -> bool:
        """Whether every produced item was consumed or acknowledged lost."""
        return self.produced == self.consumed + self.lost

    @property
    def outstanding(self) -> int:
        """Items produced but neither consumed nor acknowledged lost."""
        return self.produced - self.consumed - self.lost

    def require_balanced(self) -> None:
        """Raise unless all items were delivered (or acknowledged lost)."""
        if not self.balanced:
            raise QuiescenceError(
                f"quiescence reached with {self.outstanding} undelivered "
                f"item(s) ({self.consumed} consumed + {self.lost} lost "
                f"/ {self.produced} produced)"
            )
