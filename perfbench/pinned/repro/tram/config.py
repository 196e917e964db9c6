"""TramLib configuration.

One :class:`TramConfig` instance parameterizes a scheme instance: buffer
depth ``g`` and item size ``m`` (the paper's notation), flush behaviour,
and the co-design features of §III-B (expedited messages, local bypass,
resized flush sends are always on).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.errors import ConfigError


@dataclass(frozen=True)
class TramConfig:
    """Parameters of one TramLib scheme instance.

    Parameters
    ----------
    buffer_items:
        ``g`` — items per aggregation buffer; a full buffer is sent
        immediately.
    item_bytes:
        ``m`` — wire bytes per item.
    idle_flush:
        Flush a worker's non-empty buffers when its PE goes idle (the
        paper: "buffers can be flushed, optionally, when the processor is
        idle"). Required for dependency-driven apps (SSSP, PDES) to make
        progress; streaming apps typically flush explicitly instead.
    flush_timeout_ns:
        If set, a buffer that stays non-empty this long is flushed by a
        timer — bounds worst-case item latency.
    bypass_local:
        Deliver intra-process items directly through shared memory
        instead of aggregating them (they would never cross the network).
    expedited:
        Send TramLib messages on the expedited lane so they overtake
        ordinary application tasks at the destination PE (§III-B).
    priority_threshold:
        Optional priority-aware flushing (the paper's future-work
        feature): inserting an item whose ``priority`` is <= this value
        flushes its buffer immediately, bounding the latency of urgent
        items (e.g. small tentative distances in SSSP).
    latency_sample:
        Reservoir size for latency percentiles (0 disables sampling;
        mean/min/max are always tracked exactly).
    degraded_flush_divisor:
        When the reliability layer degrades a destination to direct
        sends, the scheme's flush timers escalate: the effective
        ``flush_timeout_ns`` is divided by this factor so items stop
        pooling behind a destination that has already proven lossy.
    overload_flush_stretch:
        When the flow controller's overload detector escalates, flush
        timers *stretch* by this factor (fire less often) — the inverse
        of the degraded escalation: overload wants less per-message
        pressure on the comm thread, not faster flushing.
    overload_buffer_growth:
        Under the same escalation, the effective buffer capacity grows
        by this factor, so full-buffer sends carry more items per
        message while the overload lasts.
    """

    buffer_items: int = 1024
    item_bytes: int = 8
    idle_flush: bool = False
    flush_timeout_ns: Optional[float] = None
    bypass_local: bool = True
    expedited: bool = True
    priority_threshold: Optional[float] = None
    latency_sample: int = 0
    degraded_flush_divisor: float = 4.0
    overload_flush_stretch: float = 4.0
    overload_buffer_growth: float = 2.0

    def __post_init__(self) -> None:
        if self.buffer_items < 1:
            raise ConfigError(f"buffer_items must be >= 1, got {self.buffer_items}")
        if self.item_bytes < 1:
            raise ConfigError(f"item_bytes must be >= 1, got {self.item_bytes}")
        if self.flush_timeout_ns is not None and self.flush_timeout_ns <= 0:
            raise ConfigError("flush_timeout_ns must be positive when set")
        if self.latency_sample < 0:
            raise ConfigError("latency_sample must be >= 0")
        if self.degraded_flush_divisor < 1.0:
            raise ConfigError(
                f"degraded_flush_divisor must be >= 1, got "
                f"{self.degraded_flush_divisor}"
            )
        if self.overload_flush_stretch < 1.0:
            raise ConfigError(
                f"overload_flush_stretch must be >= 1, got "
                f"{self.overload_flush_stretch}"
            )
        if self.overload_buffer_growth < 1.0:
            raise ConfigError(
                f"overload_buffer_growth must be >= 1, got "
                f"{self.overload_buffer_growth}"
            )

    def with_(self, **changes) -> "TramConfig":
        """Return a copy with the given fields changed."""
        return replace(self, **changes)
