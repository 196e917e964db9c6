"""Minimal chare abstraction (Charm++ flavour).

A :class:`Chare` is an object bound to one PE whose *entry methods* run
as tasks on that PE. The applications in :mod:`repro.apps` use one chare
per PE (as the paper's SSSP does: "vertices distributed across chares,
with one chare per PE"); over-decomposition (several chares per PE) is
supported since chares are just task targets.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.context import ExecContext
    from repro.runtime.system import RuntimeSystem


class Chare:
    """An object whose entry methods execute on its home PE.

    Subclass and define entry methods taking ``(self, ctx, ...)``; invoke
    them (from anywhere) with :meth:`invoke`, which posts a task on the
    chare's PE charging the standard enqueue cost at delivery.
    """

    def __init__(self, rt: "RuntimeSystem", worker_id: int) -> None:
        self.rt = rt
        self.worker_id = worker_id

    def invoke(
        self,
        method: Callable[..., Any] | str,
        *args: Any,
        delay: float = 0.0,
        expedited: bool = False,
    ) -> None:
        """Schedule an entry method on this chare's PE.

        Parameters
        ----------
        method:
            Bound method, unbound function taking ``(self, ctx, ...)``,
            or the method name as a string.
        """
        fn = getattr(self, method) if isinstance(method, str) else method
        self.rt.post(
            self.worker_id, fn, *args, delay=delay, expedited=expedited
        )

    def invoke_local(
        self, ctx: "ExecContext", method: Callable[..., Any] | str, *args: Any
    ) -> None:
        """From inside a handler: queue an entry method at completion."""
        fn = getattr(self, method) if isinstance(method, str) else method
        ctx.emit(self.rt.worker(self.worker_id).post_task, fn, *args)
