"""Parallel discrete-event simulation benchmark (paper Fig 18).

:mod:`~repro.apps.pdes.engine` implements the *placeholder optimistic
engine* the paper describes: no real rollbacks — it only tracks events
arriving out of timestamp order at each logical process (LP), the way an
optimistic PDES would have to roll back. :mod:`~repro.apps.pdes.phold`
is the synthetic PHOLD workload driving it through TramLib.
"""

from repro.apps.pdes.engine import LpState, OptimisticEngine
from repro.apps.pdes.phold import PholdResult, run_phold

__all__ = ["LpState", "OptimisticEngine", "PholdResult", "run_phold"]
