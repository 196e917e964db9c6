"""Charm++-like SMP runtime model.

The runtime realizes the paper's execution environment:

* **Worker PEs** (:class:`~repro.runtime.worker.Worker`) — message-driven
  servers with a normal and an *expedited* task lane (TramLib messages
  are expedited, per the paper) and idle-detection hooks (used for idle
  flushing).
* **Comm threads** (:class:`~repro.runtime.commthread.CommThread`) — one
  dedicated per process in SMP mode; a serializing FIFO server through
  which all of a process's network traffic passes (the §III-A
  bottleneck).
* **Transport** (:class:`~repro.runtime.transport.Transport`) — routes
  messages along the right path: intra-process (shared memory,
  comm-thread-free), intra-node inter-process, or inter-node through the
  NICs.
* **RuntimeSystem** (:class:`~repro.runtime.system.RuntimeSystem`) — the
  facade gluing machine config, cost model, engine, RNG, and the above.
"""

from repro.runtime.chare import Chare
from repro.runtime.commthread import CommThread
from repro.runtime.context import ExecContext
from repro.runtime.node import Node
from repro.runtime.proc import Process
from repro.runtime.qd_protocol import QuiescenceDetector
from repro.runtime.quiescence import QDCounter
from repro.runtime.reliability import (
    ReliabilityConfig,
    ReliabilityStats,
    ReliableDelivery,
)
from repro.runtime.system import RuntimeSystem
from repro.runtime.transport import Transport, TransportStats
from repro.runtime.worker import Worker, WorkerStats

__all__ = [
    "Chare",
    "CommThread",
    "ExecContext",
    "Node",
    "Process",
    "QDCounter",
    "QuiescenceDetector",
    "ReliabilityConfig",
    "ReliabilityStats",
    "ReliableDelivery",
    "RuntimeSystem",
    "Transport",
    "TransportStats",
    "Worker",
    "WorkerStats",
]
