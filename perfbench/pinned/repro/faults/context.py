"""Ambient fault-plan session, mirroring :class:`repro.obs.config.ObsSession`.

The harness cannot thread a :class:`~repro.faults.plan.FaultPlan`
through every figure body, so — exactly like observability — it wraps
the run in a :class:`FaultSession`; runtimes constructed inside pick up
the session's plan automatically::

    with FaultSession(FaultPlan.parse("drop=0.01")):
        run_figure_body()   # every RuntimeSystem built here is faulty

An explicit ``faults=`` argument to the runtime constructor overrides
the ambient plan. Sessions nest; the inner one wins until it exits.

Because most applications assert exactly-once delivery, a session also
carries a :class:`~repro.runtime.reliability.ReliabilityConfig` —
enabled by default, so a ``--faults`` run completes with every item
delivered; pass ``reliability=None`` to study raw (lossy) behaviour.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.faults.plan import FaultPlan

_active: Optional["FaultSession"] = None

_DEFAULT = object()


class FaultSession:
    """Installs a fault plan ambiently for runtimes built inside it."""

    def __init__(self, plan: FaultPlan, reliability: Any = _DEFAULT) -> None:
        self.plan = plan
        if reliability is _DEFAULT:
            from repro.runtime.reliability import ReliabilityConfig

            reliability = ReliabilityConfig()
        self.reliability = reliability
        self._prev: Optional["FaultSession"] = None

    def __enter__(self) -> "FaultSession":
        global _active
        self._prev = _active
        _active = self
        return self

    def __exit__(self, *exc_info: Any) -> None:
        global _active
        _active = self._prev
        self._prev = None


def active_fault_session() -> Optional["FaultSession"]:
    """The innermost active :class:`FaultSession`, if any."""
    return _active


def active_fault_plan() -> Optional[FaultPlan]:
    """The innermost active session's plan, if any."""
    return _active.plan if _active is not None else None
