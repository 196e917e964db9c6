"""Conservative parallel DES: partition by simulated node, fork workers.

A partitioned run shards a :class:`~repro.runtime.system.RuntimeSystem`
by *simulated node* across fork-based worker processes and executes the
partitions concurrently in wall-clock time, while producing artifacts
that are **canonical-byte-identical** to the sequential engine. The
synchronization protocol is classic conservative PDES with a global
lookahead window:

* **Lookahead** ``L`` is the machine model's minimum inter-node wire
  latency (:meth:`repro.machine.costs.CostModel.min_inter_node_latency_ns`).
  Every cross-partition interaction rides the wire, so an event at time
  ``t`` cannot affect a foreign node before ``t + L``.
* Each round the coordinator computes ``LBTS`` — the minimum over all
  partitions' next-event times and all in-flight cross-partition
  arrivals — and grants every partition the horizon ``H = LBTS + L``.
  Each partition runs its (unmodified) :class:`~repro.sim.engine.Engine`
  fast loop strictly below ``H``; any cross-wire send it performs
  arrives at ``t + wire >= LBTS + L = H``, i.e. never inside anyone's
  already-executed window — that is the conservative safety argument.
  The partition holding the LBTS event always fires at least one event
  per round, so the protocol makes progress.
* **Determinism**: the multi-owner engine allocates partition-stable
  sequence numbers (per-node slots plus per-directed-pair wire slots,
  see :meth:`~repro.sim.engine.Engine.configure_owners`), so a partition
  draws exactly the ``(time, seq)`` keys the sequential engine would,
  and cross-partition arrivals are injected with their sender-allocated
  keys verbatim. Within a partition the heap restores the global
  ``(time, seq)`` total order; across partitions no event can observe a
  foreign event's effects out of order thanks to the lookahead window.
  Order-sensitive float accumulators shared across nodes are sharded
  per node in *both* modes (:class:`repro.tram.stats.NodeShardedLatency`),
  which closes the last bit-identity gap.

Empty grant messages double as the protocol's *null messages*; the
round/stall/imbalance accounting lands in :class:`PdesRunInfo` and is
surfaced as ``pdes.*`` metrics (stripped from canonical artifact bytes,
like all provenance).

Fallback is always safe: any configuration the protocol does not cover
(bounded runs, faults, reliability, flow control, timeline sampling,
tracing, single-node machines, apps that never declared mergeable state)
runs sequentially and records the reason in :class:`PdesRunInfo`.
"""

from __future__ import annotations

import os
import time as _time
import traceback
from dataclasses import dataclass
from heapq import heapify
from itertools import chain
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigError, SimulationError
from repro.sim.engine import RunStats

#: Fields of :class:`PdesRunInfo` exported into run snapshots.
_INFO_FIELDS = (
    "mode",
    "partitions",
    "lookahead_ns",
    "fallback",
    "rounds",
    "null_messages",
    "wire_messages",
    "horizon_stalls_ns",
    "events_per_partition",
    "partition_imbalance",
)


@dataclass(frozen=True)
class PdesConfig:
    """Partitioned-run request.

    Parameters
    ----------
    partitions:
        Worker processes to shard simulated nodes across; clamped to
        the machine's node count at run time.
    record_fires:
        Collect every fired ``(time, seq)`` into ``engine.fire_log``
        (forces the general run loop; used by the equivalence property
        tests).
    """

    partitions: int = 2
    record_fires: bool = False

    def __post_init__(self) -> None:
        if self.partitions < 1:
            raise ConfigError(
                f"partitions must be >= 1, got {self.partitions}"
            )


@dataclass
class PdesRunInfo:
    """What one :meth:`RuntimeSystem.run` did under a PDES config."""

    #: ``"partitioned"`` or ``"sequential"`` (fallback).
    mode: str
    partitions: int
    lookahead_ns: float
    #: Why the run fell back to sequential; ``None`` when partitioned.
    fallback: Optional[str] = None
    #: Synchronization rounds (horizon grants) the coordinator issued.
    rounds: int = 0
    #: Grants carrying no cross-partition messages (the protocol's
    #: null-message count).
    null_messages: int = 0
    #: Cross-partition wire arrivals routed through the coordinator.
    wire_messages: int = 0
    #: Wall-clock nanoseconds partitions spent blocked on grants.
    horizon_stalls_ns: float = 0.0
    events_per_partition: Tuple[int, ...] = ()
    #: ``(max - min) / max`` of per-partition fired-event counts.
    partition_imbalance: float = 0.0

    def to_dict(self) -> dict:
        d = {f: getattr(self, f) for f in _INFO_FIELDS}
        d["events_per_partition"] = list(self.events_per_partition)
        return d


# ----------------------------------------------------------------------
# Ambient session (the ObsSession / FaultSession idiom)
# ----------------------------------------------------------------------
_active: Optional["PdesSession"] = None


class PdesSession:
    """Installs a :class:`PdesConfig` as ambient context.

    Every :class:`~repro.runtime.system.RuntimeSystem` constructed while
    the session is active picks the config up and routes :meth:`run`
    through :func:`run_partitioned`. Sessions nest; the innermost wins.
    The session also aggregates per-run outcomes for provenance.
    """

    def __init__(self, config: Optional[PdesConfig] = None) -> None:
        self.config = config if config is not None else PdesConfig()
        self.runs_partitioned = 0
        self.runs_sequential = 0
        self.fallback_reasons: Dict[str, int] = {}
        self._previous: Optional[PdesSession] = None

    def __enter__(self) -> "PdesSession":
        global _active
        self._previous = _active
        _active = self
        return self

    def __exit__(self, *exc: Any) -> None:
        global _active
        _active = self._previous
        self._previous = None

    def note(self, info: PdesRunInfo) -> None:
        """Record one run's outcome (called by :func:`run_partitioned`)."""
        if info.mode == "partitioned":
            self.runs_partitioned += 1
        else:
            self.runs_sequential += 1
            reason = info.fallback or "unknown"
            self.fallback_reasons[reason] = (
                self.fallback_reasons.get(reason, 0) + 1
            )

    def provenance_payload(self) -> dict:
        """Provenance block for harness artifacts (stripped from
        canonical bytes with the rest of the provenance)."""
        return {
            "sim_parallel": self.config.partitions,
            "runs_partitioned": self.runs_partitioned,
            "runs_sequential": self.runs_sequential,
            "fallback_reasons": dict(sorted(self.fallback_reasons.items())),
        }


def active_pdes_session() -> Optional[PdesSession]:
    """The innermost active :class:`PdesSession`, or ``None``."""
    return _active


# ----------------------------------------------------------------------
# Eligibility
# ----------------------------------------------------------------------
def _fallback_reason(rt: Any, until: Optional[float],
                     max_events: Optional[int]) -> Optional[str]:
    """Why ``rt`` cannot run partitioned right now (``None`` = it can)."""
    if until is not None or max_events is not None:
        return "bounded run (explicit until/max_events)"
    if rt.machine.nodes < 2:
        return "single simulated node"
    if min(rt.pdes.partitions, rt.machine.nodes) < 2:
        return "fewer than two partitions requested"
    if rt.faults is not None:
        return "fault fabric active"
    if rt.reliable is not None:
        return "reliability layer active"
    if rt.flow is not None:
        return "flow control active"
    if rt.timeline is not None:
        return "timeline recorder active"
    if rt.engine.tracer is not None:
        return "tracer active"
    if not rt._pdes_ready:
        return "app did not register pdes-mergeable state"
    if rt.costs.min_inter_node_latency_ns() <= 0:
        return "zero lookahead (alpha_inter_ns == 0)"
    if rt.engine._wheel.live_count:
        return "timer-wheel events armed before run"
    if not hasattr(os, "fork"):  # pragma: no cover - posix-only CI
        return "platform lacks fork()"
    return None


def _partition_nodes(n_nodes: int, n_parts: int) -> List[range]:
    """Contiguous node ranges, one per partition (balanced ±1)."""
    return [
        range(p * n_nodes // n_parts, (p + 1) * n_nodes // n_parts)
        for p in range(n_parts)
    ]


# ----------------------------------------------------------------------
# State snapshot / merge helpers
# ----------------------------------------------------------------------
def _numeric_items(obj: Any) -> Dict[str, Any]:
    """Mergeable int/float attributes of a plain stats-ish object."""
    if hasattr(obj, "__dict__"):
        src = vars(obj)
    else:
        src = {
            k: getattr(obj, k)
            for k in getattr(type(obj), "__slots__", ())
            if hasattr(obj, k)
        }
    return {k: v for k, v in src.items() if type(v) in (int, float)}


def _snapshot_sum_state(obj: Any) -> Any:
    """Pre-fork snapshot of a ``merge="sum"`` registration."""
    if isinstance(obj, np.ndarray):
        return obj.copy()
    if isinstance(obj, list):
        return list(obj)
    return _numeric_items(obj)


def _merge_sum_state(obj: Any, pre: Any, children: List[Any]) -> None:
    """Fold child deltas over the pre-fork snapshot, in partition order."""
    if isinstance(obj, np.ndarray):
        acc = pre.copy()
        for child in children:
            acc += child - pre
        obj[:] = acc
    elif isinstance(obj, list):
        for i, base in enumerate(pre):
            obj[i] = base + sum(child[i] - base for child in children)
    else:
        # ``children`` are the numeric dicts the partitions shipped back.
        for k, base in pre.items():
            delta = sum(child[k] - base for child in children)
            setattr(obj, k, base + delta)


def _scheme_ints(scheme: Any) -> Dict[str, int]:
    """The scheme's plain numeric counters (everything but ``latency``)."""
    items = _numeric_items(scheme.stats)
    return items


# ----------------------------------------------------------------------
# Child partition
# ----------------------------------------------------------------------
def _filter_foreign_events(engine: Any, owned: frozenset) -> None:
    """Drop pre-fork events not owned by this partition (in place, so
    the engine's heap alias stays valid)."""
    heap = engine._heap
    owner_of = engine.owner_of_seq
    heap[:] = [ev for ev in heap if ev[2] and owner_of(ev[1]) in owned]
    heapify(heap)
    engine._queue._corpses = 0


def _child_main(rt: Any, conn: Any, owned: frozenset, partition: int) -> None:
    """Run one partition to global quiescence under coordinator grants."""
    engine = rt.engine
    _filter_foreign_events(engine, owned)
    rt._pdes_local_nodes = owned

    out: List[Tuple[float, int, Any, int]] = []

    def export(arrival: float, seq: int, msg: Any, dst_node: int) -> None:
        out.append((arrival, seq, msg, dst_node))

    for node_id in owned:
        for nic in rt.node(node_id).nics:
            nic.pdes_export = export
            nic.pdes_owned = owned
    for obj, _rule in rt._pdes_states:
        if hasattr(obj, "strict"):
            # Partition-local books may legitimately consume more than
            # they produced; the merged parent counter re-checks.
            obj.strict = False

    fired = 0
    last_fire = 0.0
    stall_ns = 0.0
    conn.send(("ready", engine.peek_time(), [], 0))
    while True:
        t0 = _time.perf_counter()
        cmd = conn.recv()
        stall_ns += (_time.perf_counter() - t0) * 1e9
        op = cmd[0]
        if op == "advance":
            horizon, arrivals = cmd[1], cmd[2]
            for arrival, seq, msg, dst_node in arrivals:
                nic = rt.node(dst_node).nic_for_process(msg.dst_process)
                engine.inject_foreign(arrival, seq, nic.receive, (msg,))
            stats = engine.run(until=horizon)
            fired += stats.events_fired
            if stats.events_fired:
                last_fire = max(last_fire, stats.last_event_time)
            exports, out = out, []
            conn.send(("ready", engine.peek_time(), exports,
                       stats.events_fired))
        elif op == "finish":
            conn.send(("state", _child_bundle(
                rt, owned, partition, fired, last_fire, stall_ns
            )))
            return
        else:  # pragma: no cover - protocol guard
            raise SimulationError(f"unknown coordinator command {op!r}")


def _child_bundle(rt: Any, owned: frozenset, partition: int, fired: int,
                  last_fire: float, stall_ns: float) -> dict:
    """Everything the parent needs to graft this partition's state."""
    machine = rt.machine
    owned_workers = [
        w for n in owned for w in machine.workers_of_node(n)
    ]
    owned_procs = [
        p for n in owned for p in machine.processes_of_node(n)
    ]
    schemes = []
    for scheme in rt.schemes:
        stages = getattr(scheme, "stages", None)
        schemes.append({
            "ints": _scheme_ints(scheme),
            "latency": {
                n: scheme.stats.latency.shards[n] for n in owned
            },
            "stages": (
                None if stages is None
                else {n: stages.shards[n] for n in owned}
            ),
        })
    states = []
    for obj, rule in rt._pdes_states:
        if rule == "sum":
            states.append(_snapshot_sum_state(obj))
        else:  # "worker"
            states.append({w: obj[w] for w in owned_workers})
    return {
        "partition": partition,
        "fired": fired,
        "last_fire": last_fire,
        "stall_ns": stall_ns,
        "owner_seq": list(rt.engine._owner_seq),
        "fire_log": rt.engine.fire_log,
        "workers": {w: rt.worker(w).stats for w in owned_workers},
        "commthreads": {
            p: rt.process(p).commthread.stats
            for p in owned_procs
            if rt.process(p).commthread is not None
        },
        "nics": {
            n: [nic.stats for nic in rt.node(n).nics] for n in owned
        },
        "transport": rt.transport.stats.export(),
        "schemes": schemes,
        "states": states,
    }


# ----------------------------------------------------------------------
# Coordinator
# ----------------------------------------------------------------------
def _recv_checked(conn: Any, pid: int) -> tuple:
    msg = conn.recv()
    if msg[0] == "error":
        raise SimulationError(
            f"PDES partition (pid {pid}) failed:\n{msg[1]}"
        )
    return msg


def run_partitioned(
    rt: Any,
    *,
    until: Optional[float] = None,
    max_events: Optional[int] = None,
) -> RunStats:
    """Run ``rt`` to quiescence, sharded by simulated node.

    Falls back to the sequential engine (recording the reason in
    ``rt.pdes_info``) whenever the configuration is outside the
    conservative protocol's coverage. The merged result — clock, event
    counts, every component/scheme/app counter — is identical to what
    the sequential run would have produced.
    """
    lookahead = rt.costs.min_inter_node_latency_ns()
    session = active_pdes_session()
    if rt.engine.pending == 0:
        # Nothing scheduled (e.g. a second run() call): trivially done,
        # and not worth forking for. Keeps any earlier run's info.
        return rt.engine.run(until=until, max_events=max_events)
    reason = _fallback_reason(rt, until, max_events)
    if reason is not None:
        rt.pdes_info = PdesRunInfo(
            mode="sequential", partitions=1,
            lookahead_ns=lookahead, fallback=reason,
        )
        if session is not None:
            session.note(rt.pdes_info)
        return rt.engine.run(until=until, max_events=max_events)

    from multiprocessing.connection import Pipe

    machine = rt.machine
    n_parts = min(rt.pdes.partitions, machine.nodes)
    node_ranges = _partition_nodes(machine.nodes, n_parts)
    part_of_node = {
        n: p for p, rng in enumerate(node_ranges) for n in rng
    }

    # Pre-fork snapshots for delta merging.
    pre_transport = rt.transport.stats.export()
    pre_schemes = [_scheme_ints(s) for s in rt.schemes]
    pre_states = [
        _snapshot_sum_state(obj) if rule == "sum" else None
        for obj, rule in rt._pdes_states
    ]

    conns = []
    pids = []
    for p in range(n_parts):
        parent_conn, child_conn = Pipe()
        pid = os.fork()
        if pid == 0:
            parent_conn.close()
            try:
                _child_main(rt, child_conn, frozenset(node_ranges[p]), p)
                child_conn.close()
                os._exit(0)
            except BaseException:
                try:
                    child_conn.send(("error", traceback.format_exc()))
                except Exception:
                    pass
                os._exit(1)
        child_conn.close()
        conns.append(parent_conn)
        pids.append(pid)

    info = PdesRunInfo(
        mode="partitioned", partitions=n_parts, lookahead_ns=lookahead
    )
    try:
        next_times: List[Optional[float]] = []
        for p, conn in enumerate(conns):
            msg = _recv_checked(conn, pids[p])
            next_times.append(msg[1])
        pending: List[list] = [[] for _ in range(n_parts)]
        fired_per = [0] * n_parts
        while True:
            candidates = [t for t in next_times if t is not None]
            candidates.extend(
                m[0] for msgs in pending for m in msgs
            )
            if not candidates:
                break
            horizon = min(candidates) + lookahead
            info.rounds += 1
            for p, conn in enumerate(conns):
                if not pending[p]:
                    info.null_messages += 1
                conn.send(("advance", horizon, pending[p]))
                pending[p] = []
            for p, conn in enumerate(conns):
                _, nt, exports, n_fired = _recv_checked(conn, pids[p])
                next_times[p] = nt
                fired_per[p] += n_fired
                for exp in exports:
                    info.wire_messages += 1
                    pending[part_of_node[exp[3]]].append(exp)
        for conn in conns:
            conn.send(("finish",))
        bundles = [
            _recv_checked(conn, pids[p])[1] for p, conn in enumerate(conns)
        ]
    finally:
        for conn in conns:
            conn.close()
        for pid in pids:
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:  # pragma: no cover
                pass

    stats = _merge(rt, bundles, pre_transport, pre_schemes, pre_states)
    info.events_per_partition = tuple(b["fired"] for b in bundles)
    info.horizon_stalls_ns = sum(b["stall_ns"] for b in bundles)
    peak = max(info.events_per_partition) if info.events_per_partition else 0
    if peak:
        info.partition_imbalance = (
            (peak - min(info.events_per_partition)) / peak
        )
    rt.pdes_info = info
    if session is not None:
        session.note(info)
    return stats


def _merge(rt: Any, bundles: List[dict], pre_transport: dict,
           pre_schemes: List[Dict[str, int]],
           pre_states: List[Any]) -> RunStats:
    """Graft the partitions' final state onto the parent runtime."""
    bundles = sorted(bundles, key=lambda b: b["partition"])
    engine = rt.engine

    for bundle in bundles:
        for wid, wstats in bundle["workers"].items():
            rt.worker(wid).stats = wstats
        for pid, cstats in bundle["commthreads"].items():
            rt.process(pid).commthread.stats = cstats
        for node_id, nic_stats in bundle["nics"].items():
            for nic, nstats in zip(rt.node(node_id).nics, nic_stats):
                nic.stats = nstats
        rt.transport.stats.absorb_delta(bundle["transport"], pre_transport)

    for i, scheme in enumerate(rt.schemes):
        pre = pre_schemes[i]
        merged = dict(pre)
        for bundle in bundles:
            child = bundle["schemes"][i]
            for key, base in pre.items():
                merged[key] += child["ints"][key] - base
            for node_id, shard in child["latency"].items():
                scheme.stats.latency.shards[node_id] = shard
            if child["stages"] is not None:
                for node_id, shard in child["stages"].items():
                    scheme.stages.shards[node_id] = shard
        for key, value in merged.items():
            setattr(scheme.stats, key, value)

    for i, (obj, rule) in enumerate(rt._pdes_states):
        if rule == "sum":
            _merge_sum_state(
                obj, pre_states[i], [b["states"][i] for b in bundles]
            )
        else:  # "worker"
            for bundle in bundles:
                for wid, element in bundle["states"][i].items():
                    obj[wid] = element

    # Owner counters: each slot advances in exactly one place (its
    # node's partition, or the wire-pair sender's partition), so the
    # per-slot max across children is that partition's final value.
    merged_seq = list(engine._owner_seq)
    for bundle in bundles:
        for slot, value in enumerate(bundle["owner_seq"]):
            if value > merged_seq[slot]:
                merged_seq[slot] = value
    engine._owner_seq = merged_seq

    if engine.fire_log is not None:
        logs = [b["fire_log"] or [] for b in bundles]
        engine.fire_log.extend(sorted(chain.from_iterable(logs)))

    # Every pre-fork event executed in some partition; drop the parent's
    # (stale) copies and land the clock on the last event actually fired.
    engine._heap.clear()
    engine._queue._corpses = 0
    last_fire = max((b["last_fire"] for b in bundles), default=engine.now)
    if last_fire > engine.now:
        engine.now = last_fire

    stats = RunStats()
    stats.events_fired = sum(b["fired"] for b in bundles)
    stats.end_time = engine.now
    stats.last_event_time = last_fire
    return stats
