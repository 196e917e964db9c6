"""Per-layer host time and exact work counts, read from a cProfile hook.

The traced run enables a :class:`cProfile.Profile` (builtins included)
around each ``run_*`` call. Every profiled function is assigned to one
layer by the file that defines it (``builtins.heapq`` and ``numpy`` by
the C function's name), and a layer's self time is the sum of its
functions' ``tottime``: time in the layer's own code, not in anything
it calls. ``other`` takes the rest, so the layers sum to the traced
total. Call counts from the same profile give the exact counts.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import sys
from typing import Dict, Iterable, List, Optional, Tuple

import numpy

import repro
from repro.machine.topology import MachineConfig
from repro.network.nic import Nic
from repro.sim.wheel import TimerWheel
from repro.tram.buffer import proportional_take
from repro.tram.schemes.base import SchemeBase

LAYERS = (
    "sim",
    "runtime.worker",
    "runtime.commthread",
    "runtime.transport",
    "runtime.reliability",
    "tram.schemes",
    "tram.buffer",
    "tram.stats",
    "machine",
    "network",
    "flow",
    "faults",
    "apps",
    "builtins.heapq",
    "numpy",
)

#: Source paths under ``repro/`` -> layer, first match wins; ``None``
#: means ``other``. ``sim.parallel`` is excluded from the benchmark. The
#: ambient-session lookups in ``faults/context.py`` and
#: ``flow/context.py`` run once per runtime construction in every
#: workload; they are configuration plumbing, not fault or flow work.
_PATH_LAYERS: Tuple[Tuple[str, Optional[str]], ...] = (
    ("sim/parallel.py", None),
    ("sim/", "sim"),
    ("runtime/worker.py", "runtime.worker"),
    ("runtime/commthread.py", "runtime.commthread"),
    ("runtime/transport.py", "runtime.transport"),
    ("runtime/reliability.py", "runtime.reliability"),
    ("tram/schemes/", "tram.schemes"),
    ("tram/buffer.py", "tram.buffer"),
    ("tram/stats.py", "tram.stats"),
    ("machine/", "machine"),
    ("network/", "network"),
    ("flow/context.py", None),
    ("flow/", "flow"),
    ("faults/context.py", None),
    ("faults/", "faults"),
    ("apps/", "apps"),
)

_REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
_NUMPY_DIR = os.path.dirname(os.path.abspath(numpy.__file__)) + os.sep

_HEAP_OPS = ("<built-in method _heapq.heappush>", "<built-in method _heapq.heappop>")

Key = Tuple[str, int, str]


def _key(fn) -> Key:
    code = fn.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


def _class_methods(cls) -> List[Key]:
    """Profile keys of the methods and properties a class defines in its own
    source file (not the ones ``dataclass`` generates)."""
    source = sys.modules[cls.__module__].__file__
    keys = []
    for attr in vars(cls).values():
        fn = getattr(attr, "fget", None) or getattr(attr, "__func__", attr)
        code = getattr(fn, "__code__", None)
        if code is not None and code.co_filename == source:
            keys.append(_key(fn))
    return keys


#: Exact call counts, each the number of calls to the listed functions.
COUNTED_CALLS: Dict[str, List[Key]] = {
    "sim.timer_arms": [_key(TimerWheel.push)],
    "sim.timer_cancels": [_key(TimerWheel.cancel)],
    "tram.schemes.inserts": [_key(SchemeBase.insert), _key(SchemeBase.insert_bulk)],
    "tram.buffer.take_calls": [_key(proportional_take)],
    "machine.lookups": _class_methods(MachineConfig),
    "network.messages": [_key(Nic.inject)],
}


def layer_of(key: Key) -> str:
    """The layer a profiled function belongs to."""
    filename, _, name = key
    if filename == "~":
        if name.startswith("<built-in method _heapq."):
            return "builtins.heapq"
        return "numpy" if "numpy" in name else "other"
    path = os.path.abspath(filename)
    if path.startswith(_NUMPY_DIR):
        return "numpy"
    if path.startswith(_REPRO_DIR):
        rel = path[len(_REPRO_DIR):].replace(os.sep, "/")
        for prefix, layer in _PATH_LAYERS:
            if rel.startswith(prefix):
                return layer or "other"
    return "other"


class LayerProfile:
    """Accumulates a cProfile over several points and summarizes it by layer."""

    def __init__(self) -> None:
        self.profiler = cProfile.Profile(builtins=True)

    def summary(self) -> Tuple[Dict[str, float], Dict[str, int], float]:
        """Return (self seconds per layer incl. ``other``, call counts, traced total)."""
        stats = pstats.Stats(self.profiler).stats
        self_s = dict.fromkeys(LAYERS + ("other",), 0.0)
        total = 0.0
        for key, (_cc, _nc, tottime, _ct, _callers) in stats.items():
            self_s[layer_of(key)] += tottime
            total += tottime
        counts = {
            name: _calls(stats, keys) for name, keys in COUNTED_CALLS.items()
        }
        counts["sim.heap_ops"] = _calls(stats, [("~", 0, op) for op in _HEAP_OPS])
        return self_s, counts, total


def _calls(stats: dict, keys: Iterable[Key]) -> int:
    return sum(stats[k][1] for k in keys if k in stats)
