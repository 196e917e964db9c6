"""Time-series telemetry: a flight recorder for one simulated run.

The aggregate counters in :mod:`repro.obs.registry` answer *where* the
nanoseconds went; they cannot show *when*. The paper's crossover
structure (PP lowest latency, WPs best total time, WW collapsing at
scale) and the fault/overload machinery of the reliability and flow
subsystems are time-varying phenomena: a backlog ramp during a scripted
comm-thread stall, credit-gate occupancy saturating ahead of an
overload escalation, retransmit bursts after a loss window. The
:class:`TimelineRecorder` captures exactly those signals as ring-buffered
time series sampled on a **simulated-time** cadence.

Design constraints, in order:

* **Deterministic.** Samples are taken at cadence boundaries of the
  simulated clock, immediately before the first event at-or-past each
  boundary fires. Sampling therefore depends only on the event stream —
  never on wall clock, scheduling or process layout — so serial and
  parallel sweep executions produce byte-identical timeline blocks.
* **Off by default, cheap when on.** With no
  :class:`TimelineConfig` the engine runs its unmodified hot loop; with
  one, the run takes the engine's general loop, which pays a float
  comparison per event and the probe walk only at boundaries (see
  ``Engine._run_general``), guarded by
  ``benchmarks/bench_obs_overhead.py``.
* **Bounded memory.** Samples live in a ring of ``capacity`` rows;
  on overflow the recorder decimates (drops every other retained sample
  and doubles its sampling stride), so arbitrarily long runs keep a
  full-span, progressively coarser trace — classic flight-recorder
  behavior.

Series are named after the metrics-registry entries they shadow
(``commthreads.out_messages``, ``flow.messages_shed``,
``tram.0.WPs.pending_items``, ...) so ``validate-metrics`` can
cross-check the final sample against the end-of-run snapshot counters;
purely instantaneous per-entity series (``ct.3.backlog_ns``,
``gate.nic:0.0.in_flight_msgs``) use names outside the registry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.system import RuntimeSystem

#: Schema tag stamped into :meth:`TimelineRecorder.to_dict`.
TIMELINE_SCHEMA = "repro.obs.timeline/1"


@dataclass(frozen=True)
class TimelineConfig:
    """Flight-recorder switch and shape (off unless attached)."""

    enabled: bool = True
    #: Simulated-time sampling cadence. The default keeps a dense trace
    #: for millisecond-scale runs at negligible cost.
    cadence_ns: float = 50_000.0
    #: Ring capacity in samples; overflow decimates (stride doubles).
    capacity: int = 512
    #: Per-destination series (parked/shed per destination process) are
    #: recorded only when the machine has at most this many processes.
    max_dest_series: int = 32


class TimelineRecorder:
    """Periodic sampler attached to one runtime (``rt.timeline``).

    The engine drives it: whenever the next event's firing time crosses
    ``next_due``, the engine calls :meth:`on_boundary` *before* firing,
    so every sample reflects the state exactly at its boundary time
    (all events strictly before the boundary applied, none at or after).
    """

    def __init__(self, rt: "RuntimeSystem", config: TimelineConfig) -> None:
        self.rt = rt
        self.config = config
        self.cadence = float(config.cadence_ns)
        if self.cadence <= 0:
            raise ValueError(f"timeline cadence must be positive, got {self.cadence}")
        self.capacity = max(8, int(config.capacity))
        #: Current sampling stride in cadence units (doubles on overflow).
        self.stride = 1
        self.decimations = 0
        #: Next boundary (absolute simulated ns) the engine compares
        #: event times against. Boundary 0 is skipped: it would always
        #: record the all-zero initial state.
        self.next_due = self.cadence
        #: Retained boundary indices, in base-cadence units, strictly
        #: increasing and all divisible by the stride at record time.
        self._ticks: List[int] = []
        #: Series name -> column of values, parallel to ``_ticks``.
        self._columns: Dict[str, List[float]] = {}
        self._probes: List[Tuple[str, Callable[[float], float]]] = []
        #: Scheme count the probe list was built for; schemes attach to
        #: the runtime after construction, so probes rebuild lazily.
        self._probes_schemes = -1

    # ------------------------------------------------------------------
    # Probe construction
    # ------------------------------------------------------------------
    def _build_probes(self) -> List[Tuple[str, Callable[[float], float]]]:
        rt = self.rt
        probes: List[Tuple[str, Callable[[float], float]]] = []

        ws = [w.stats for w in rt.workers]
        probes.append(
            ("workers.queued_bytes", lambda t: sum(s.queued_bytes for s in ws))
        )

        cts = [p.commthread for p in rt.processes if p.commthread is not None]
        if cts:
            cstats = [ct.stats for ct in cts]
            probes.append(
                ("commthreads.out_messages",
                 lambda t: sum(s.out_messages for s in cstats))
            )
            probes.append(
                ("commthreads.in_messages",
                 lambda t: sum(s.in_messages for s in cstats))
            )
            probes.append(
                ("commthreads.backlog_ns",
                 lambda t: sum(max(0.0, c._free - t) for c in cts))
            )
            for ct in cts:
                probes.append(
                    (f"ct.{ct.pid}.backlog_ns",
                     lambda t, c=ct: max(0.0, c._free - t))
                )

        nics = [nic for node in rt.nodes for nic in node.nics]
        nstats = [nic.stats for nic in nics]
        probes.append(
            ("nics.tx_messages", lambda t: sum(s.tx_messages for s in nstats))
        )
        probes.append(
            ("nics.rx_messages", lambda t: sum(s.rx_messages for s in nstats))
        )
        probes.append(
            ("nics.tx_bytes", lambda t: sum(s.tx_bytes for s in nstats))
        )
        for node in rt.nodes:
            for i, nic in enumerate(node.nics):
                label = f"nic.{node.node_id}.{i}"
                probes.append(
                    (f"{label}.tx_backlog_ns",
                     lambda t, n=nic: max(0.0, n._tx_free - t))
                )
                probes.append(
                    (f"{label}.rx_backlog_ns",
                     lambda t, n=nic: max(0.0, n._rx_free - t))
                )

        flow = rt.flow
        if flow is not None:
            fstats = flow.stats
            probes.append(
                ("flow.messages_admitted", lambda t: fstats.messages_admitted)
            )
            probes.append(
                ("flow.messages_parked", lambda t: fstats.messages_parked)
            )
            probes.append(
                ("flow.messages_shed", lambda t: fstats.messages_shed)
            )
            probes.append(("flow.items_shed", lambda t: fstats.items_shed))
            probes.append(
                ("flow.parked_messages", lambda t: flow.parked_messages())
            )
            probes.append(
                ("flow.overloaded", lambda t: 1 if flow.overloaded else 0)
            )
            gates = flow.gates()
            probes.append(
                ("flow.in_flight_msgs",
                 lambda t: sum(g.in_flight_msgs for g in gates))
            )
            probes.append(
                ("flow.in_flight_bytes",
                 lambda t: sum(g.in_flight_bytes for g in gates))
            )
            probes.append(
                ("flow.oldest_park_age_ns",
                 lambda t: max(
                     (t - g.parked[0].t_parked for g in gates if g.parked),
                     default=0.0,
                 ))
            )
            for gate in gates:
                label = f"gate.{gate.name}"
                probes.append(
                    (f"{label}.in_flight_msgs",
                     lambda t, g=gate: g.in_flight_msgs)
                )
                probes.append(
                    (f"{label}.in_flight_bytes",
                     lambda t, g=gate: g.in_flight_bytes)
                )
                probes.append(
                    (f"{label}.parked", lambda t, g=gate: len(g.parked))
                )
            if rt.machine.total_processes <= self.config.max_dest_series:
                for pid in range(rt.machine.total_processes):
                    probes.append(
                        (f"flow.dest.{pid}.parked_messages",
                         lambda t, p=pid: sum(g.parked_for(p) for g in gates))
                    )
                    probes.append(
                        (f"flow.dest.{pid}.shed_messages",
                         lambda t, p=pid: flow.shed_by_dest.get(p, 0))
                    )

        reliable = rt.reliable
        if reliable is not None:
            rstats = reliable.stats
            probes.append(
                ("reliability.retransmits", lambda t: rstats.retransmits)
            )
            probes.append(
                ("reliability.acks_sent", lambda t: rstats.acks_sent)
            )
            probes.append(
                ("reliability.pending_messages",
                 lambda t: reliable.pending_count())
            )

        faults = rt.faults
        if faults is not None:
            fa = faults.stats
            probes.append(
                ("faults.messages_dropped", lambda t: fa.messages_dropped)
            )
            probes.append(("faults.messages_lost", lambda t: fa.messages_lost))
            probes.append(("faults.items_lost", lambda t: fa.items_lost))
            if rt.dead_procs is not None:
                # Crash fabric armed: record the death/recovery wavefront.
                # Gated so crash-free timeline blocks keep their exact
                # pre-fabric series set.
                probes.append(
                    ("faults.dead_processes",
                     lambda t: len(rt.dead_procs))
                )
                probes.append(
                    ("faults.items_lost_to_crash",
                     lambda t: fa.items_lost_to_crash)
                )
                if reliable is not None:
                    probes.append(
                        ("reliability.peers_suspected",
                         lambda t: rstats.peers_suspected)
                    )
                    probes.append(
                        ("reliability.peers_confirmed_dead",
                         lambda t: rstats.peers_confirmed_dead)
                    )

        for i, scheme in enumerate(rt.schemes):
            prefix = f"tram.{i}.{scheme.name}"
            tstats = scheme.stats
            probes.append(
                (f"{prefix}.pending_items", lambda t, s=scheme: s.pending_items())
            )
            probes.append(
                (f"{prefix}.items_inserted",
                 lambda t, s=tstats: s.items_inserted)
            )
            probes.append(
                (f"{prefix}.items_delivered",
                 lambda t, s=tstats: s.items_delivered)
            )
        return probes

    def _ensure_probes(self) -> None:
        n = len(self.rt.schemes)
        if n == self._probes_schemes:
            return
        self._probes = self._build_probes()
        self._probes_schemes = n
        # Series that appear mid-run (a scheme attached between run()
        # calls) are backfilled with zeros so all columns stay parallel.
        depth = len(self._ticks)
        for name, _ in self._probes:
            if name not in self._columns:
                self._columns[name] = [0.0] * depth

    # ------------------------------------------------------------------
    # Sampling (driven by the engine)
    # ------------------------------------------------------------------
    def on_boundary(self, t: float) -> float:
        """Record one sample for the crossing into event time ``t``.

        Called by the engine when ``t >= next_due``, before the event
        fires. Records a single sample at the *latest* eligible boundary
        not after ``t`` (idle gaps collapse to one sample instead of a
        run of identical rows), then returns the new ``next_due``.
        """
        k = int(t // self.cadence)
        k -= k % self.stride
        self._record(k)
        # ``stride`` may have doubled in _record's decimation; realign.
        self.next_due = ((k // self.stride) + 1) * self.stride * self.cadence
        return self.next_due

    def _record(self, k: int) -> None:
        self._ensure_probes()
        stamp = k * self.cadence
        self._ticks.append(k)
        for name, probe in self._probes:
            self._columns[name].append(probe(stamp))
        if len(self._ticks) > self.capacity:
            self._decimate()

    def _decimate(self) -> None:
        """Halve the retained samples; double the sampling stride."""
        self.stride *= 2
        keep = [i for i, k in enumerate(self._ticks) if k % self.stride == 0]
        self._ticks = [self._ticks[i] for i in keep]
        for name, col in self._columns.items():
            self._columns[name] = [col[i] for i in keep]
        self.decimations += 1

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def sample_now(self) -> Dict[str, float]:
        """One probe walk at the current simulated time (not retained)."""
        self._ensure_probes()
        now = self.rt.engine.now
        return {name: probe(now) for name, probe in self._probes}

    def to_dict(self) -> dict:
        """JSON-ready timeline block for the run snapshot.

        The ``final`` sample is taken at export time (the same moment
        the snapshot reads the metrics registry), which is what makes
        the validator's final-sample ≡ snapshot-counter check exact.
        """
        return {
            "schema": TIMELINE_SCHEMA,
            "cadence_ns": self.cadence,
            "stride": self.stride,
            "capacity": self.capacity,
            "decimations": self.decimations,
            "n_samples": len(self._ticks),
            "times_ns": [k * self.cadence for k in self._ticks],
            "series": {name: list(col) for name, col in self._columns.items()},
            "final": {
                "time_ns": self.rt.engine.now,
                "values": self.sample_now(),
            },
        }
