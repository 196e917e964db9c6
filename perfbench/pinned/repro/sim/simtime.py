"""Simulated-time units and helpers.

The simulator's base unit is the **nanosecond**, carried as a ``float``.
All cost-model constants (:mod:`repro.machine.costs`) are expressed in
nanoseconds; the helpers here exist so call-sites read naturally::

    engine.after(5 * US, fire)
    print(fmt_time(engine.now))
"""

from __future__ import annotations

#: One nanosecond (the base unit).
NS: float = 1.0
#: One microsecond in nanoseconds.
US: float = 1_000.0
#: One millisecond in nanoseconds.
MS: float = 1_000_000.0
#: One second in nanoseconds.
SEC: float = 1_000_000_000.0

_UNITS = ((SEC, "s"), (MS, "ms"), (US, "us"), (NS, "ns"))


def fmt_time(ns: float) -> str:
    """Render a simulated duration with a human-friendly unit.

    Parameters
    ----------
    ns:
        Duration in nanoseconds. Negative values are formatted with a
        leading minus sign.

    Examples
    --------
    >>> fmt_time(1500.0)
    '1.500us'
    >>> fmt_time(0.0)
    '0ns'
    """
    if ns == 0:
        return "0ns"
    sign = "-" if ns < 0 else ""
    mag = abs(ns)
    for scale, suffix in _UNITS:
        if mag >= scale:
            return f"{sign}{mag / scale:.3f}{suffix}"
    return f"{sign}{mag:.3f}ns"


def to_us(ns: float) -> float:
    """Convert nanoseconds to microseconds."""
    return ns / US


def to_ms(ns: float) -> float:
    """Convert nanoseconds to milliseconds."""
    return ns / MS


def to_seconds(ns: float) -> float:
    """Convert nanoseconds to seconds."""
    return ns / SEC
