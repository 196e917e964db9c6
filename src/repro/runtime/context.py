"""Execution context passed to every task handler.

Execution model
---------------
A handler runs *logically* at the simulated time its task starts. While
running it accumulates CPU cost via :meth:`ExecContext.charge`; the
worker stays busy until ``start + total cost``, and everything the
handler *emits* (sends, follow-up events) is released at that completion
time. This "charge-and-defer" model keeps handlers plain Python while
preserving exact server semantics (a PE processes one task at a time and
its outputs appear when the task finishes).

The one approximation: state mutations inside a handler take effect at
task *start* rather than spread across its duration. All schemes are
modelled identically, so relative comparisons are unaffected.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, List, Tuple

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.worker import Worker


class ExecContext:
    """Per-task accumulator of CPU cost and deferred emissions.

    Attributes
    ----------
    worker:
        The PE executing the task.
    start:
        Simulated time the task started.
    now:
        Logical time of the handler; equal to ``start``.
    cost:
        CPU nanoseconds charged so far.
    """

    __slots__ = ("worker", "start", "now", "cost", "_emissions")

    def __init__(self, worker: "Worker", start: float) -> None:
        self.worker = worker
        self.start = start
        self.now = start
        self.cost = 0.0
        self._emissions: List[Tuple[float, Callable[..., Any], tuple]] = []

    @property
    def rt(self):
        """The owning :class:`~repro.runtime.system.RuntimeSystem`."""
        return self.worker.rt

    def charge(self, ns: float) -> None:
        """Consume ``ns`` nanoseconds of this PE's CPU."""
        if ns < 0:
            raise SimulationError(f"negative charge {ns}")
        self.cost += ns

    def emit(self, fn: Callable[..., Any], *args: Any, delay: float = 0.0) -> None:
        """Schedule ``fn(*args)`` at task completion (+ optional delay).

        This is how handlers send messages: the transport's ``send`` is
        emitted so the message leaves the PE exactly when the CPU work
        that produced it finishes.
        """
        if delay < 0:
            raise SimulationError(f"negative emission delay {delay}")
        self._emissions.append((delay, fn, args))

    def post_local(
        self, fn: Callable[..., Any], *args: Any, expedited: bool = False
    ) -> None:
        """Queue another task on this same PE at completion time."""
        self.emit(self.worker.post_task, fn, *args, **{})
        # post_task takes keyword 'expedited'; emit passes positionally,
        # so wrap when expedited delivery is requested.
        if expedited:
            self._emissions.pop()
            self.emit(self._post_expedited, fn, args)

    def _post_expedited(self, fn: Callable[..., Any], args: tuple) -> None:
        self.worker.post_task(fn, *args, expedited=True)
