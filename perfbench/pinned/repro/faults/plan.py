"""Declarative fault model: what can go wrong, when, and to whom.

A :class:`FaultPlan` is a frozen description of the failure regime a run
should experience — steady-state per-message probabilities (drop,
duplicate, corrupt, reorder) plus scripted :class:`FaultWindow` episodes
(``(t_start, t_end, kind, target, magnitude)``): transient NIC
degradation, comm-thread stalls, or time-bounded bursts of the wire
faults. Plans are pure data; the seeded dice live in
:class:`~repro.faults.injector.FaultInjector`.

Plans are off by default and zero-cost when absent: a runtime built
without one (and outside a :class:`~repro.faults.context.FaultSession`)
carries ``rt.faults is None`` and every hook reduces to that one check —
the same gating pattern as :class:`~repro.obs.config.ObsConfig`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.errors import FaultInjectionError

#: Wire-level fault kinds (per-message dice at the source NIC).
WIRE_KINDS = ("drop", "dup", "corrupt", "reorder")

#: Component-level scripted degradations.
COMPONENT_KINDS = ("nic_degrade", "ct_stall")

#: Endpoint-level scripted events: a process dies (or comes back) at
#: ``t_start``. Instantaneous — ``t_end`` is ignored by convention
#: (pass :data:`FOREVER`); ``target`` is the process id and mandatory.
PROCESS_KINDS = ("proc_crash", "proc_restart")

KINDS = WIRE_KINDS + COMPONENT_KINDS + PROCESS_KINDS


@dataclass(frozen=True)
class FaultWindow:
    """One scripted fault episode.

    Parameters
    ----------
    t_start / t_end:
        Simulated-time interval ``[t_start, t_end)`` the episode is
        active in (``t_end`` may be ``math.inf`` for a permanent fault).
    kind:
        One of :data:`KINDS`. Wire kinds add ``magnitude`` to the
        steady-state probability while active; ``nic_degrade`` is an
        occupancy multiplier on the targeted node's NIC(s); ``ct_stall``
        freezes the targeted comm thread until ``t_end``.
    target:
        Scope of the episode: destination node id for wire kinds, node
        id for ``nic_degrade``, process id for ``ct_stall``. ``None``
        targets everything.
    magnitude:
        Probability increment (wire kinds, clamped to 1.0 at use) or
        occupancy multiplier (``nic_degrade``; must be >= 1). Unused by
        ``ct_stall``.
    """

    t_start: float
    t_end: float
    kind: str
    target: Optional[int] = None
    magnitude: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise FaultInjectionError(
                f"unknown fault kind {self.kind!r}; use one of {KINDS}"
            )
        if not self.t_start >= 0:
            raise FaultInjectionError(f"window t_start must be >= 0, got {self.t_start}")
        if not self.t_end > self.t_start:
            raise FaultInjectionError(
                f"window t_end ({self.t_end}) must exceed t_start ({self.t_start})"
            )
        if self.kind in WIRE_KINDS and not 0.0 <= self.magnitude <= 1.0:
            raise FaultInjectionError(
                f"{self.kind} window magnitude must be a probability in [0, 1], "
                f"got {self.magnitude}"
            )
        if self.kind == "nic_degrade" and self.magnitude < 1.0:
            raise FaultInjectionError(
                f"nic_degrade magnitude is an occupancy multiplier >= 1, "
                f"got {self.magnitude}"
            )
        if self.kind in PROCESS_KINDS and self.target is None:
            raise FaultInjectionError(
                f"{self.kind} window needs an explicit target process id"
            )

    def active(self, now: float) -> bool:
        """Whether the episode covers simulated time ``now``."""
        return self.t_start <= now < self.t_end

    def matches(self, target: Optional[int]) -> bool:
        """Whether the episode applies to a component/destination id."""
        return self.target is None or self.target == target


_PROB_FIELDS = ("drop", "dup", "corrupt", "reorder")


@dataclass(frozen=True)
class FaultPlan:
    """Seeded, deterministic fault regime for one run.

    Parameters
    ----------
    drop / dup / corrupt / reorder:
        Steady-state per-message probabilities applied at the source NIC
        on the inter-node wire (intra-node shared-memory transport is
        assumed lossless, like CMA/xpmem).
    reorder_max_ns:
        Bound on the extra delay a reordered copy picks up (uniform in
        ``(0, reorder_max_ns]``) — bounded reordering, so protocol state
        stays finite.
    windows:
        Scripted :class:`FaultWindow` episodes layered on top.
    crash_procs:
        Number of *seeded* process crashes: that many distinct victim
        processes are drawn from the runtime's dedicated
        ``"proc-faults"`` RNG stream (never process 0, which hosts the
        quiescence coordinator), each with a crash time uniform in
        ``[crash_t_min_ns, crash_t_max_ns)``. Scripted ``proc_crash``
        windows layer on top for exact placement.
    crash_restart_after_ns:
        When set, every seeded victim restarts this long after its
        crash; ``None`` (the default) keeps victims dead for the rest
        of the run.
    """

    drop: float = 0.0
    dup: float = 0.0
    corrupt: float = 0.0
    reorder: float = 0.0
    reorder_max_ns: float = 5_000.0
    windows: Tuple[FaultWindow, ...] = field(default_factory=tuple)
    crash_procs: int = 0
    crash_t_min_ns: float = 0.0
    crash_t_max_ns: float = 1_000_000.0
    crash_restart_after_ns: Optional[float] = None

    def __post_init__(self) -> None:
        for name in _PROB_FIELDS:
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise FaultInjectionError(
                    f"fault probability {name!r} must be in [0, 1], got {p}"
                )
        if self.reorder_max_ns <= 0:
            raise FaultInjectionError(
                f"reorder_max_ns must be positive, got {self.reorder_max_ns}"
            )
        if self.crash_procs < 0:
            raise FaultInjectionError(
                f"crash_procs must be >= 0, got {self.crash_procs}"
            )
        if not 0.0 <= self.crash_t_min_ns < self.crash_t_max_ns:
            raise FaultInjectionError(
                f"need 0 <= crash_t_min_ns < crash_t_max_ns, got "
                f"[{self.crash_t_min_ns}, {self.crash_t_max_ns})"
            )
        if (
            self.crash_restart_after_ns is not None
            and self.crash_restart_after_ns <= 0
        ):
            raise FaultInjectionError(
                f"crash_restart_after_ns must be positive, got "
                f"{self.crash_restart_after_ns}"
            )
        object.__setattr__(self, "windows", tuple(self.windows))

    def is_noop(self) -> bool:
        """True when the plan injects nothing (treated as no plan)."""
        return (
            all(getattr(self, name) == 0.0 for name in _PROB_FIELDS)
            and not self.windows
            and self.crash_procs == 0
        )

    def has_crashes(self) -> bool:
        """Whether the plan kills (or restarts) any process — seeded or
        scripted. ``False`` keeps the whole crash fabric unbuilt, so a
        wire-faults-only run schedules zero extra events and consumes
        zero extra RNG draws (byte-identity with pre-crash-fabric runs).
        """
        return self.crash_procs > 0 or any(
            w.kind in PROCESS_KINDS for w in self.windows
        )

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Build a plan from a ``--faults`` spec string.

        Comma-separated ``key=value`` pairs, e.g.
        ``"drop=0.05,dup=0.01,corrupt=0.005,reorder=0.01,reorder_max=8000"``.
        Scripted windows are API-only.

        >>> FaultPlan.parse("drop=0.05,dup=0.01").drop
        0.05
        """
        aliases = {
            "reorder_max": "reorder_max_ns",
            "crash_t_min": "crash_t_min_ns",
            "crash_t_max": "crash_t_max_ns",
            "crash_restart_after": "crash_restart_after_ns",
        }
        known = _PROB_FIELDS + (
            "reorder_max_ns", "crash_procs", "crash_t_min_ns",
            "crash_t_max_ns", "crash_restart_after_ns",
        )
        kwargs = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            key, sep, value = part.partition("=")
            key = aliases.get(key.strip(), key.strip())
            if not sep or key not in known:
                raise FaultInjectionError(
                    f"bad --faults entry {part!r}; use key=value with keys "
                    f"{', '.join(_PROB_FIELDS + tuple(aliases))}"
                )
            try:
                kwargs[key] = int(value) if key == "crash_procs" else float(value)
            except ValueError:
                raise FaultInjectionError(
                    f"bad --faults value in {part!r}: not a number"
                ) from None
        return cls(**kwargs)

    def with_window(self, *windows: FaultWindow) -> "FaultPlan":
        """Copy of the plan with extra scripted episodes appended."""
        return FaultPlan(
            drop=self.drop,
            dup=self.dup,
            corrupt=self.corrupt,
            reorder=self.reorder,
            reorder_max_ns=self.reorder_max_ns,
            windows=self.windows + tuple(windows),
            crash_procs=self.crash_procs,
            crash_t_min_ns=self.crash_t_min_ns,
            crash_t_max_ns=self.crash_t_max_ns,
            crash_restart_after_ns=self.crash_restart_after_ns,
        )


#: Convenience alias: a window open until the end of the run.
FOREVER = math.inf
