"""Credit gates: bounded occupancy in front of a virtual-clock server.

The simulator's comm threads and NICs are virtual-clock FIFO servers —
they have no explicit queue, only a ``_free`` horizon. A
:class:`CreditGate` bounds how much work may be *booked* on such a
server at once: each admitted message consumes one message credit and
its size in byte credits until the server would have finished serving it
(the release event fires at the server's post-booking ``_free``). When
either cap is hit, further messages park in the gate's FIFO and are
admitted in order as credits return — preserving per-channel ordering,
which the reliability layer's dedup window relies on.

One liveness rule: a message is always admitted when the gate is
completely empty, so a single message larger than ``max_bytes`` cannot
deadlock the pipeline (mirrors the classic "always accept one message"
rule of credit-based link-level flow control).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict


class ParkedMessage:
    """One message held at a gate waiting for credits."""

    __slots__ = ("msg", "admit", "dst_process", "t_parked")

    def __init__(
        self, msg, admit: Callable[[], None], dst_process: int, t_parked: float
    ) -> None:
        self.msg = msg
        #: Zero-arg closure that performs the deferred admission.
        self.admit = admit
        self.dst_process = dst_process
        self.t_parked = t_parked


class CreditGate:
    """Message + byte credit accounting for one server."""

    __slots__ = (
        "name",
        "max_msgs",
        "max_bytes",
        "in_flight_msgs",
        "in_flight_bytes",
        "parked",
        "_parked_by_dest",
        "hwm_msgs",
        "hwm_bytes",
        "hwm_parked",
    )

    def __init__(self, name: str, max_msgs: int, max_bytes: int) -> None:
        self.name = name
        self.max_msgs = max_msgs
        self.max_bytes = max_bytes
        self.in_flight_msgs = 0
        self.in_flight_bytes = 0
        self.parked: Deque[ParkedMessage] = deque()
        self._parked_by_dest: Dict[int, int] = {}
        self.hwm_msgs = 0
        self.hwm_bytes = 0
        self.hwm_parked = 0

    def can_admit(self, nbytes: int) -> bool:
        """Whether a message of ``nbytes`` fits under the caps now."""
        if self.in_flight_msgs == 0:
            return True  # empty gate always accepts one message
        return (
            self.in_flight_msgs < self.max_msgs
            and self.in_flight_bytes + nbytes <= self.max_bytes
        )

    def acquire(self, nbytes: int) -> None:
        self.in_flight_msgs += 1
        self.in_flight_bytes += nbytes
        if self.in_flight_msgs > self.hwm_msgs:
            self.hwm_msgs = self.in_flight_msgs
        if self.in_flight_bytes > self.hwm_bytes:
            self.hwm_bytes = self.in_flight_bytes

    def release(self, nbytes: int) -> None:
        self.in_flight_msgs -= 1
        self.in_flight_bytes -= nbytes

    # ------------------------------------------------------------------
    # Parked FIFO
    # ------------------------------------------------------------------
    def park(self, entry: ParkedMessage) -> None:
        self.parked.append(entry)
        dest = entry.dst_process
        self._parked_by_dest[dest] = self._parked_by_dest.get(dest, 0) + 1
        if len(self.parked) > self.hwm_parked:
            self.hwm_parked = len(self.parked)

    def pop_parked(self) -> ParkedMessage:
        entry = self.parked.popleft()
        remaining = self._parked_by_dest[entry.dst_process] - 1
        if remaining:
            self._parked_by_dest[entry.dst_process] = remaining
        else:
            del self._parked_by_dest[entry.dst_process]
        return entry

    def parked_for(self, dst_process: int) -> int:
        """Currently parked messages addressed to ``dst_process``."""
        return self._parked_by_dest.get(dst_process, 0)

    def purge(self, predicate: Callable[[ParkedMessage], bool]) -> list:
        """Remove (and return) parked entries matching ``predicate``.

        Used by the crash fabric to drop messages held for — or sourced
        from — a dead process; relative order of survivors is kept.
        """
        removed = [e for e in self.parked if predicate(e)]
        if removed:
            kept = [e for e in self.parked if not predicate(e)]
            self.parked = deque(kept)
            self._parked_by_dest = {}
            for e in kept:
                dest = e.dst_process
                self._parked_by_dest[dest] = self._parked_by_dest.get(dest, 0) + 1
        return removed

    @property
    def blocked(self) -> bool:
        """Whether new arrivals would park (credits exhausted or FIFO
        non-empty — arrivals may not overtake parked messages)."""
        return bool(self.parked) or (
            self.in_flight_msgs > 0
            and (
                self.in_flight_msgs >= self.max_msgs
                or self.in_flight_bytes >= self.max_bytes
            )
        )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "max_msgs": self.max_msgs,
            "max_bytes": self.max_bytes,
            "in_flight_msgs": self.in_flight_msgs,
            "in_flight_bytes": self.in_flight_bytes,
            "parked": len(self.parked),
            "hwm_msgs": self.hwm_msgs,
            "hwm_bytes": self.hwm_bytes,
            "hwm_parked": self.hwm_parked,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CreditGate {self.name} {self.in_flight_msgs}/{self.max_msgs} msgs "
            f"{self.in_flight_bytes}/{self.max_bytes} B parked={len(self.parked)}>"
        )
