"""Ambient flow-control session, mirroring :class:`repro.faults.context.FaultSession`.

The harness cannot thread a :class:`~repro.flow.config.FlowConfig`
through every figure body, so — exactly like observability and fault
injection — it wraps the run in a :class:`FlowSession`; runtimes
constructed inside pick up the session's config automatically::

    with FlowSession(FlowConfig.parse("ct_msgs=16,overload=100000")):
        run_figure_body()   # every RuntimeSystem built here is flow-controlled

An explicit ``flow=`` argument to the runtime constructor overrides the
ambient config. Sessions nest; the inner one wins until it exits.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.flow.config import FlowConfig

_active: Optional["FlowSession"] = None


class FlowSession:
    """Installs a flow config ambiently for runtimes built inside it."""

    def __init__(self, config: FlowConfig) -> None:
        self.config = config
        self._prev: Optional["FlowSession"] = None

    def __enter__(self) -> "FlowSession":
        global _active
        self._prev = _active
        _active = self
        return self

    def __exit__(self, *exc_info: Any) -> None:
        global _active
        _active = self._prev
        self._prev = None


def active_flow_session() -> Optional["FlowSession"]:
    """The innermost active :class:`FlowSession`, if any."""
    return _active


def active_flow_config() -> Optional[FlowConfig]:
    """The innermost active session's config, if any."""
    return _active.config if _active is not None else None
