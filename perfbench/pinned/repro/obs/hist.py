"""Fixed-bucket log2 histograms for latency aggregation.

The observability layer needs percentiles without unbounded memory and
without per-sample RNG draws (which would perturb determinism budgets on
the hot path). A :class:`Log2Histogram` keeps 64 power-of-two buckets:
recording is an integer ``bit_length`` plus a few adds, percentiles are
a cumulative walk. Values are simulated nanoseconds, so bucket ``i``
covers ``[2**(i-1), 2**i)`` ns — resolution is a factor of two, which is
exactly the granularity latency plots are read at.

Exact count/total/min/max are kept alongside, so means are precise even
though percentiles are bucketed.
"""

from __future__ import annotations

from typing import Optional

#: Number of buckets; 2**63 ns ≈ 292 years of simulated time, far past
#: any run horizon.
N_BUCKETS = 64


class Log2Histogram:
    """Weighted log2 histogram with exact moments.

    ``record(value, weight)`` files ``weight`` observations of ``value``
    nanoseconds. Bucket index is ``int(value).bit_length()`` (bucket 0
    holds values below 1 ns, including zero).
    """

    __slots__ = ("counts", "count", "total", "min", "max")

    def __init__(self) -> None:
        self.counts = [0] * N_BUCKETS
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = 0.0

    def record(self, value: float, weight: int = 1) -> None:
        """File ``weight`` observations of ``value`` ns."""
        self.count += weight
        self.total += value * weight
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        iv = int(value)
        idx = iv.bit_length() if iv > 0 else 0
        if idx >= N_BUCKETS:
            idx = N_BUCKETS - 1
        self.counts[idx] += weight

    def merge(self, other: "Log2Histogram") -> None:
        """Fold another histogram into this one."""
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.count += other.count
        self.total += other.total
        if other.min < self.min:
            self.min = other.min
        if other.max > self.max:
            self.max = other.max

    @property
    def mean(self) -> float:
        """Exact mean of recorded values (0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> Optional[float]:
        """Approximate percentile (upper bucket edge, clamped to min/max).

        Accurate to the bucket resolution (a factor of two); ``None``
        when nothing was recorded.
        """
        if self.count == 0:
            return None
        target = self.count * q / 100.0
        cum = 0
        for i, c in enumerate(self.counts):
            cum += c
            if cum >= target:
                upper = float(1 << i)  # bucket i covers [2**(i-1), 2**i)
                return min(max(upper, self.min), self.max)
        return self.max  # pragma: no cover - cum always reaches count

    def summary(self) -> dict:
        """Plain-dict snapshot (the JSON-artifact representation)."""
        return {
            "count": self.count,
            "total_ns": self.total,
            "mean_ns": self.mean,
            "min_ns": self.min if self.count else 0.0,
            "max_ns": self.max,
            "p50_ns": self.percentile(50),
            "p90_ns": self.percentile(90),
            "p99_ns": self.percentile(99),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Log2Histogram n={self.count} mean={self.mean:.1f}ns>"
