"""Benchmark applications from the paper (§III-D).

* :mod:`~repro.apps.pingack` — the PingAck microbenchmark exposing the
  comm-thread bottleneck (Figs 2–3);
* :mod:`~repro.apps.histogram` — Bale-suite histogramming: pure-overhead
  streaming updates (Figs 8–11);
* :mod:`~repro.apps.indexgather` — Bale-suite index-gather:
  request/response, the paper's latency probe (Figs 12–13);
* :mod:`~repro.apps.sssp` — speculative single-source shortest paths
  with wasted-update accounting (Figs 14–17);
* :mod:`~repro.apps.pdes` — synthetic PHOLD on a placeholder optimistic
  engine counting out-of-order deliveries (Fig 18);
* :mod:`~repro.apps.graphs` — deterministic graph generators feeding
  SSSP.
"""

from repro.apps.alltoall import AllToAllResult, run_alltoall
from repro.apps.histogram import HistogramResult, run_histogram
from repro.apps.indexgather import IndexGatherResult, run_indexgather
from repro.apps.pingack import PingAckResult, run_pingack
from repro.apps.sssp import SsspResult, run_sssp
from repro.apps.pdes import PholdResult, run_phold

__all__ = [
    "AllToAllResult",
    "HistogramResult",
    "IndexGatherResult",
    "PholdResult",
    "PingAckResult",
    "SsspResult",
    "run_alltoall",
    "run_histogram",
    "run_indexgather",
    "run_phold",
    "run_pingack",
    "run_sssp",
]
