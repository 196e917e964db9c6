"""A unified, named, typed metrics namespace.

Every counter the simulator keeps — ``TramStats``, worker /
comm-thread / NIC stats, transport route counters, the utilization
report — registers here under a dotted name with a kind (``counter``,
``gauge`` or ``histogram``) and a unit, so tools can enumerate and
snapshot them uniformly instead of spelunking component objects.

Readers are callables evaluated at snapshot time, so a registry built
before ``rt.run()`` reads post-run values for free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from repro.errors import ConfigError
from repro.obs.hist import Log2Histogram

#: Schema identifier stamped into :meth:`MetricsRegistry.to_json`.
REGISTRY_SCHEMA = "repro.metrics-registry/1"

KINDS = ("counter", "gauge", "histogram")


@dataclass(frozen=True)
class Metric:
    """One named metric: metadata plus a value reader."""

    name: str
    kind: str
    read: Callable[[], Any]
    unit: str = ""
    help: str = ""

    def value(self) -> Any:
        """Current value; histograms resolve to their summary dict."""
        v = self.read()
        if isinstance(v, Log2Histogram):
            return v.summary()
        return v


class MetricsRegistry:
    """Collision-checked collection of :class:`Metric` objects."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    def register(
        self,
        name: str,
        kind: str,
        read: Callable[[], Any],
        *,
        unit: str = "",
        help: str = "",
    ) -> Metric:
        """Add a metric; duplicate names and unknown kinds are errors."""
        if kind not in KINDS:
            raise ConfigError(f"unknown metric kind {kind!r}; use one of {KINDS}")
        if name in self._metrics:
            raise ConfigError(f"metric {name!r} already registered")
        metric = Metric(name=name, kind=kind, read=read, unit=unit, help=help)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, read: Callable[[], Any], **kw: str) -> Metric:
        return self.register(name, "counter", read, **kw)

    def gauge(self, name: str, read: Callable[[], Any], **kw: str) -> Metric:
        return self.register(name, "gauge", read, **kw)

    def histogram(self, name: str, read: Callable[[], Any], **kw: str) -> Metric:
        return self.register(name, "histogram", read, **kw)

    def names(self) -> list:
        return sorted(self._metrics)

    def get(self, name: str) -> Metric:
        return self._metrics[name]

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def snapshot(self) -> Dict[str, Any]:
        """Name -> current value for every registered metric."""
        return {name: self._metrics[name].value() for name in self.names()}

    def to_json(self) -> dict:
        """Schema-versioned snapshot including metadata per metric."""
        return {
            "schema": REGISTRY_SCHEMA,
            "metrics": {
                name: {
                    "kind": m.kind,
                    "unit": m.unit,
                    "help": m.help,
                    "value": m.value(),
                }
                for name, m in sorted(self._metrics.items())
            },
        }


# ----------------------------------------------------------------------
# Runtime wiring
# ----------------------------------------------------------------------
_TRAM_COUNTERS = (
    ("items_inserted", "items"),
    ("items_delivered", "items"),
    ("items_bypassed_local", "items"),
    ("messages_full", "messages"),
    ("messages_flush", "messages"),
    ("bytes_sent", "bytes"),
    ("atomic_inserts", "items"),
    ("group_elements", "elements"),
    ("local_sections", "sections"),
    ("messages_forwarded", "messages"),
    ("buffers_allocated", "buffers"),
    ("buffer_bytes_allocated", "bytes"),
    ("flushes_requested", "flushes"),
    ("priority_flushes", "flushes"),
    ("degraded_destinations", "processes"),
    ("direct_fallback_sends", "items"),
    ("flush_escalations", "escalations"),
    ("overload_escalations", "escalations"),
)

_FAULT_COUNTERS = (
    ("messages_dropped", "messages"),
    ("messages_duplicated", "messages"),
    ("messages_corrupted", "messages"),
    ("messages_reordered", "messages"),
    ("messages_lost", "messages"),
    ("items_lost", "items"),
)

#: Registered only when the crash fabric is armed (``rt.dead_procs`` not
#: None), so crash-free metric dumps keep their exact pre-fabric names.
_CRASH_FAULT_COUNTERS = (
    ("proc_crashes", "processes"),
    ("proc_restarts", "processes"),
    ("messages_lost_to_crash", "messages"),
    ("items_lost_to_crash", "items"),
)

_CRASH_RELIABILITY_COUNTERS = (
    ("peers_suspected", "processes"),
    ("suspicions_cleared", "processes"),
    ("probes_sent", "messages"),
    ("peers_confirmed_dead", "processes"),
    ("channels_torn_down", "channels"),
)

_CRASH_TRAM_COUNTERS = (
    ("dead_peer_drops", "items"),
    ("failover_reroutes", "decisions"),
)

_RELIABILITY_COUNTERS = (
    ("protected_messages", "messages"),
    ("retransmits", "messages"),
    ("acks_sent", "messages"),
    ("acks_piggybacked", "messages"),
    ("nacks_sent", "messages"),
    ("duplicates_discarded", "messages"),
    ("corrupt_discarded", "messages"),
    ("window_overflow_discards", "messages"),
    ("channels_degraded", "channels"),
    ("messages_abandoned", "messages"),
    ("items_abandoned", "items"),
    ("messages_unconfirmed", "messages"),
    ("stale_discarded", "messages"),
)

_FLOW_COUNTERS = (
    ("messages_admitted", "messages"),
    ("messages_parked", "messages"),
    ("messages_shed", "messages"),
    ("items_shed", "items"),
    ("bytes_shed", "bytes"),
    ("source_stalls", "stalls"),
    ("flush_deferrals", "flushes"),
    ("overload_escalations", "escalations"),
    ("overload_clears", "escalations"),
)

_UTIL_GAUGES = (
    "worker_mean",
    "worker_max",
    "commthread_mean",
    "commthread_max",
    "nic_tx_mean",
    "nic_rx_mean",
    "commthread_queue_wait_ns",
    "nic_queue_wait_ns",
    "commthread_max_backlog_ns",
    "worker_queued_bytes_hwm",
)


def _util_unit(fname: str) -> str:
    if fname.endswith("_ns"):
        return "ns"
    if "bytes" in fname:
        return "bytes"
    return "fraction"


def _utilization_reader(rt: Any) -> Callable[[], Any]:
    """Memoized utilization report, recomputed when the clock moves."""
    cache: Dict[float, Any] = {}

    def get() -> Optional[Any]:
        if rt.engine.now <= 0:
            return None
        t = rt.engine.now
        if t not in cache:
            from repro.harness.metrics import utilization  # lazy: layering

            cache.clear()
            cache[t] = utilization(rt)
        return cache[t]

    return get


def registry_from_runtime(rt: Any) -> MetricsRegistry:
    """Register every counter a :class:`RuntimeSystem` keeps.

    Names follow ``component.metric`` (aggregated over instances) and
    ``tram.<i>.<scheme>.metric`` per attached scheme instance.
    """
    reg = MetricsRegistry()
    reg.gauge("run.total_time_ns", lambda: rt.engine.now, unit="ns",
              help="simulated clock at snapshot time")

    ws = [w.stats for w in rt.workers]
    reg.counter("workers.tasks_executed",
                lambda: sum(s.tasks_executed for s in ws), unit="tasks")
    reg.counter("workers.messages_received",
                lambda: sum(s.messages_received for s in ws), unit="messages")
    reg.counter("workers.idle_transitions",
                lambda: sum(s.idle_transitions for s in ws))
    reg.gauge("workers.busy_ns_total",
              lambda: sum(s.busy_ns for s in ws), unit="ns")
    reg.gauge("workers.busy_ns_max",
              lambda: max((s.busy_ns for s in ws), default=0.0), unit="ns")
    reg.gauge("workers.queued_bytes",
              lambda: sum(s.queued_bytes for s in ws), unit="bytes",
              help="bytes of received messages not yet handled")
    reg.gauge("workers.queued_bytes_hwm",
              lambda: max((s.queued_bytes_hwm for s in ws), default=0),
              unit="bytes",
              help="largest PE receive-queue occupancy any worker reached")

    cts = [p.commthread.stats for p in rt.processes if p.commthread is not None]
    reg.counter("commthreads.out_messages",
                lambda: sum(s.out_messages for s in cts), unit="messages")
    reg.counter("commthreads.in_messages",
                lambda: sum(s.in_messages for s in cts), unit="messages")
    reg.gauge("commthreads.busy_ns_total",
              lambda: sum(s.busy_ns for s in cts), unit="ns")
    reg.gauge("commthreads.queue_wait_ns_total",
              lambda: sum(s.queue_wait_ns for s in cts), unit="ns")
    reg.gauge("commthreads.max_backlog_ns",
              lambda: max((s.max_backlog_ns for s in cts), default=0.0),
              unit="ns",
              help="worst booked-ahead horizon any comm thread reached")

    nics = [nic.stats for node in rt.nodes for nic in node.nics]
    reg.counter("nics.tx_messages",
                lambda: sum(s.tx_messages for s in nics), unit="messages")
    reg.counter("nics.rx_messages",
                lambda: sum(s.rx_messages for s in nics), unit="messages")
    reg.counter("nics.tx_bytes", lambda: sum(s.tx_bytes for s in nics),
                unit="bytes")
    reg.counter("nics.rx_bytes", lambda: sum(s.rx_bytes for s in nics),
                unit="bytes")
    reg.gauge("nics.tx_queue_wait_ns_total",
              lambda: sum(s.tx_queue_wait_ns for s in nics), unit="ns")
    reg.gauge("nics.rx_queue_wait_ns_total",
              lambda: sum(s.rx_queue_wait_ns for s in nics), unit="ns")

    tstats = rt.transport.stats
    for route in list(tstats.messages):
        rname = route.value
        reg.counter(f"transport.{rname}.messages",
                    lambda r=route: tstats.messages[r], unit="messages")
        reg.counter(f"transport.{rname}.bytes",
                    lambda r=route: tstats.bytes[r], unit="bytes")

    util = _utilization_reader(rt)
    for fname in _UTIL_GAUGES:
        unit = _util_unit(fname)
        reg.gauge(f"utilization.{fname}",
                  lambda f=fname: getattr(util(), f, None)
                  if util() is not None else None,
                  unit=unit)
    reg.gauge("utilization.bottleneck",
              lambda: util().bottleneck() if util() is not None else None,
              help="most-utilized component class")

    crash_armed = getattr(rt, "dead_procs", None) is not None

    faults = getattr(rt, "faults", None)
    if faults is not None:
        fstats = faults.stats
        for fname, unit in _FAULT_COUNTERS:
            reg.counter(f"faults.{fname}",
                        lambda s=fstats, f=fname: getattr(s, f), unit=unit)
        reg.gauge("faults.ct_stall_ns", lambda s=fstats: s.ct_stall_ns,
                  unit="ns", help="comm-thread time frozen by stall windows")
        if crash_armed:
            for fname, unit in _CRASH_FAULT_COUNTERS:
                reg.counter(f"faults.{fname}",
                            lambda s=fstats, f=fname: getattr(s, f), unit=unit)
            reg.gauge("faults.dead_processes",
                      lambda r=rt: len(r.dead_procs), unit="processes",
                      help="processes dead at snapshot time")

    reliable = getattr(rt, "reliable", None)
    if reliable is not None:
        rstats = reliable.stats
        for fname, unit in _RELIABILITY_COUNTERS:
            reg.counter(f"reliability.{fname}",
                        lambda s=rstats, f=fname: getattr(s, f), unit=unit)
        reg.gauge("reliability.pending_messages",
                  lambda r=reliable: r.pending_count(), unit="messages",
                  help="sent but unacked messages at snapshot time")
        if crash_armed:
            for fname, unit in _CRASH_RELIABILITY_COUNTERS:
                reg.counter(f"reliability.{fname}",
                            lambda s=rstats, f=fname: getattr(s, f), unit=unit)

    flow = getattr(rt, "flow", None)
    if flow is not None:
        flstats = flow.stats
        for fname, unit in _FLOW_COUNTERS:
            reg.counter(f"flow.{fname}",
                        lambda s=flstats, f=fname: getattr(s, f), unit=unit)
        reg.gauge("flow.park_wait_ns", lambda s=flstats: s.park_wait_ns,
                  unit="ns", help="total time messages spent parked at gates")
        reg.gauge("flow.source_stall_ns",
                  lambda s=flstats: s.source_stall_ns, unit="ns",
                  help="CPU time charged to producers as backpressure")
        reg.gauge("flow.parked_messages",
                  lambda f=flow: f.parked_messages(), unit="messages",
                  help="messages parked at gates at snapshot time")
        reg.gauge("flow.overloaded",
                  lambda f=flow: f.overloaded,
                  help="whether the overload detector is escalated")

    for i, scheme in enumerate(getattr(rt, "schemes", ())):
        prefix = f"tram.{i}.{scheme.name}"
        stats = scheme.stats
        for fname, unit in _TRAM_COUNTERS:
            reg.counter(f"{prefix}.{fname}",
                        lambda s=stats, f=fname: getattr(s, f), unit=unit)
        if crash_armed:
            for fname, unit in _CRASH_TRAM_COUNTERS:
                reg.counter(f"{prefix}.{fname}",
                            lambda s=stats, f=fname: getattr(s, f), unit=unit)
        reg.gauge(f"{prefix}.pending_items",
                  lambda s=scheme: s.pending_items(), unit="items")
        reg.gauge(f"{prefix}.latency_mean_ns",
                  lambda s=stats: s.latency.mean, unit="ns")
        stages = getattr(scheme, "stages", None)
        if stages is not None:
            for stage in stages.hists:
                reg.histogram(f"{prefix}.stage.{stage}",
                              lambda st=stages, s=stage: st.hist(s), unit="ns",
                              help="per-item latency attributed to this stage")
    return reg
