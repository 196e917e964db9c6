"""Per-figure experiment registry.

Every data figure of the paper has a generator here returning a
:class:`~repro.harness.experiment.FigureData`. Figures 2 and 4–7 are
schematics (realized as code: the PingAck app and the four scheme
implementations); everything else is regenerated below.

Scaling: the simulated machine uses 2 processes x 4 workers per node
(the paper's Delta nodes run 8 x 8); problem sizes are scaled so the
governing ratios — items per destination buffer, comm-thread load per
worker — are preserved (DESIGN.md §2). The ``quick`` profile shrinks
sweeps to bench-friendly sizes; ``paper`` is the default.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Dict, Tuple

from repro.analysis import (
    buffer_bytes_per_process,
    message_bounds_total,
)
from repro.apps import (
    run_histogram,
    run_indexgather,
    run_phold,
    run_pingack,
    run_sssp,
)
from repro.apps.graphs import generate_graph
from repro.errors import HarnessError
from repro.harness.experiment import FigureData, Series
from repro.machine import MachineConfig, nonsmp_machine
from repro.network.pingpong import measure_pingpong
from repro.tram import SCHEME_NAMES

#: Scaled stand-in for a Delta node (paper: 8 processes x 8 workers).
SCALED_PPN = 2
SCALED_WPP = 4


# ----------------------------------------------------------------------
# Grid-point functions: module-level so the sweep pool can execute them
# in worker processes and key them in the result cache. Each returns a
# small JSON-friendly dict of just the fields its figures read.
# ----------------------------------------------------------------------
def _histo_point(
    seed: int, *, nodes: int, scheme: str, z: int, g: int, batch: int
) -> dict:
    r = run_histogram(
        scaled_machine(nodes),
        scheme,
        updates_per_pe=z,
        buffer_items=g,
        batch=batch,
        seed=seed,
    )
    return {"time_ms": r.total_time_ns / 1e6}


def _ig_point(seed: int, *, nodes: int, scheme: str, z: int) -> dict:
    r = run_indexgather(
        scaled_machine(nodes),
        scheme,
        requests_per_pe=z,
        buffer_items=64,
        batch=500,
        seed=seed,
    )
    return {
        "round_trip_latency_ns": r.round_trip_latency_ns,
        "total_time_ns": r.total_time_ns,
    }


def _run_grid(fn, grid, tag) -> list:
    """Run one figure grid through the sweep pool; values in grid order.

    Point order matters twice: it fixes how series are assembled below
    and the order run snapshots land in the metrics artifact, so it
    must match the historical serial enumeration exactly.
    """
    from repro.harness.pool import map_points

    return [o.value for o in map_points(fn, grid, tag=tag)]


def scaled_machine(nodes: int) -> MachineConfig:
    """The harness's standard SMP machine for ``nodes`` nodes."""
    return MachineConfig(
        nodes=nodes, processes_per_node=SCALED_PPN, workers_per_process=SCALED_WPP
    )


def _check_profile(profile: str) -> str:
    if profile not in ("paper", "quick"):
        raise HarnessError(f"unknown profile {profile!r}; use 'paper' or 'quick'")
    return profile


# ======================================================================
# Fig 1 — ping-pong time vs message size
# ======================================================================
def fig1(profile: str = "paper") -> FigureData:
    _check_profile(profile)
    sizes = (
        [8, 64, 256, 1024, 4096, 16384, 65536, 262144, 1048576, 4194304]
        if profile == "paper"
        else [8, 1024, 65536, 1048576]
    )
    results = measure_pingpong(sizes)
    return FigureData(
        fig_id="fig1",
        title="Ping-pong between two physical nodes",
        xlabel="message bytes",
        ylabel="one-way time (us)",
        x=sizes,
        series=[Series("one_way_us", [r.one_way_ns / 1e3 for r in results])],
        expected=(
            "flat (alpha-dominated, microseconds) for small sizes; "
            "bandwidth-bound beyond ~1KB with effective beta ~0.1 ns/B"
        ),
    )


# ======================================================================
# Fig 3 — PingAck SMP (process counts) vs non-SMP
# ======================================================================
def fig3(profile: str = "paper") -> FigureData:
    _check_profile(profile)
    wpn = 16 if profile == "paper" else 8
    msgs = 250 if profile == "paper" else 100
    labels = ["non-SMP"]
    times = [
        run_pingack(
            nonsmp_machine(2, ranks_per_node=wpn), messages_per_pe=msgs
        ).total_time_ns
        / 1e6
    ]
    ppns = [1, 2, 4, 8] if profile == "paper" else [1, 2, 4]
    for ppn in ppns:
        machine = MachineConfig(
            nodes=2, processes_per_node=ppn, workers_per_process=wpn // ppn
        )
        r = run_pingack(machine, messages_per_pe=msgs)
        labels.append(f"SMP {ppn}proc")
        times.append(r.total_time_ns / 1e6)
    return FigureData(
        fig_id="fig3",
        title="PingAck: SMP (process counts) vs non-SMP, 2 nodes",
        xlabel="configuration",
        ylabel="total time (ms)",
        x=labels,
        series=[Series("time_ms", times)],
        expected=(
            "SMP with 1 process/node several times slower than non-SMP "
            "(comm-thread serialization); monotone recovery as processes "
            "per node increase"
        ),
        notes=f"{wpn} worker cores per node (paper: 64), {msgs} msgs/PE",
    )


# ======================================================================
# Fig 8 — histogram SMP (WPs) vs non-SMP, varying workers/process
# ======================================================================
def fig8(profile: str = "paper") -> FigureData:
    _check_profile(profile)
    wpn = 8
    z = 8000 if profile == "paper" else 2000
    labels = ["non-SMP"]
    times = [
        run_histogram(
            nonsmp_machine(2, ranks_per_node=wpn),
            "WW",
            updates_per_pe=z,
            buffer_items=64,
            batch=1000,
        ).total_time_ns
        / 1e6
    ]
    for wpp in (2, 4, 8):
        machine = MachineConfig(
            nodes=2, processes_per_node=wpn // wpp, workers_per_process=wpp
        )
        r = run_histogram(
            machine, "WPs", updates_per_pe=z, buffer_items=64, batch=1000
        )
        labels.append(f"SMP wpp={wpp}")
        times.append(r.total_time_ns / 1e6)
    return FigureData(
        fig_id="fig8",
        title="Histogram: SMP (WPs) vs non-SMP, varying workers/process",
        xlabel="configuration",
        ylabel="total time (ms)",
        x=labels,
        series=[Series("time_ms", times)],
        expected="SMP WPs on par with (or better than) non-SMP",
        notes=f"{wpn} worker cores/node, z={z} updates/PE",
    )


# ======================================================================
# Fig 9 / 10 / 11 — histogram scheme comparisons
# ======================================================================
def fig9(profile: str = "paper") -> FigureData:
    _check_profile(profile)
    nodes_list = [1, 2, 4, 8, 16, 32] if profile == "paper" else [1, 2, 4, 8]
    z = 8000 if profile == "paper" else 3000
    grid = [
        {"nodes": nodes, "scheme": scheme, "z": z, "g": 64, "batch": 1000}
        for nodes in nodes_list
        for scheme in SCHEME_NAMES
    ]
    values = _run_grid(_histo_point, grid, "figures.histo")
    series = {s: [] for s in SCHEME_NAMES}
    for params, value in zip(grid, values):
        series[params["scheme"]].append(value["time_ms"])
    return FigureData(
        fig_id="fig9",
        title="Histogram weak scaling (z updates/PE constant)",
        xlabel="nodes",
        ylabel="total time (ms)",
        x=nodes_list,
        series=[Series(s, series[s]) for s in SCHEME_NAMES],
        expected=(
            "WPs scales best; WsP close; PP scales with atomics overhead; "
            "WW stops scaling beyond ~16 nodes (flush-dominated)"
        ),
        notes=f"z={z}, g=64 (paper: z=1M, g=1024; ratios preserved)",
    )


def fig10(profile: str = "paper") -> FigureData:
    _check_profile(profile)
    nodes = 8 if profile == "paper" else 4
    gs = [16, 32, 64, 128, 256, 512] if profile == "paper" else [16, 64, 256]
    z = 8000 if profile == "paper" else 3000
    grid = [
        {"nodes": nodes, "scheme": scheme, "z": z, "g": g, "batch": 1000}
        for g in gs
        for scheme in SCHEME_NAMES
    ]
    values = _run_grid(_histo_point, grid, "figures.histo")
    series = {s: [] for s in SCHEME_NAMES}
    for params, value in zip(grid, values):
        series[params["scheme"]].append(value["time_ms"])
    return FigureData(
        fig_id="fig10",
        title="Histogram: buffer-size sweep",
        xlabel="buffer items (g)",
        ylabel="total time (ms)",
        x=gs,
        series=[Series(s, series[s]) for s in SCHEME_NAMES],
        expected=(
            "node-aware schemes improve with larger g; WW improves then "
            "degrades once its g*m*N*t footprint exceeds cache and its "
            "buffers stop filling"
        ),
        notes=f"{nodes} nodes, z={z}",
    )


def fig11(profile: str = "paper") -> FigureData:
    _check_profile(profile)
    nodes_list = [1, 2, 4, 8, 16, 32] if profile == "paper" else [1, 2, 4, 8]
    z = 1000 if profile == "paper" else 600
    grid = [
        {"nodes": nodes, "scheme": scheme, "z": z, "g": 64, "batch": 500}
        for nodes in nodes_list
        for scheme in SCHEME_NAMES
    ]
    values = _run_grid(_histo_point, grid, "figures.histo")
    series = {s: [] for s in SCHEME_NAMES}
    for params, value in zip(grid, values):
        series[params["scheme"]].append(value["time_ms"])
    return FigureData(
        fig_id="fig11",
        title="Histogram, few updates/PE (flush-heavy)",
        xlabel="nodes",
        ylabel="total time (ms)",
        x=nodes_list,
        series=[Series(s, series[s]) for s in SCHEME_NAMES],
        expected=(
            "WW collapses from ~8 nodes (flush messages dominate); "
            "WPs/WsP best; PP close to WPs (atomics offset its gains)"
        ),
        notes=f"z={z} (paper: 128K vs 1M; small-z/flush-heavy regime)",
    )


# ======================================================================
# Fig 12 / 13 — index-gather latency and total time
# ======================================================================
@lru_cache(maxsize=4)
def _ig_sweep(profile: str):
    nodes_list = (1, 2, 4, 8, 16) if profile == "paper" else (1, 2, 4)
    z = 4000 if profile == "paper" else 3000
    grid = [
        {"nodes": nodes, "scheme": scheme, "z": z}
        for nodes in nodes_list
        for scheme in SCHEME_NAMES
    ]
    values = _run_grid(_ig_point, grid, "figures.indexgather")
    out: Dict[int, Dict[str, dict]] = {}
    for params, value in zip(grid, values):
        out.setdefault(params["nodes"], {})[params["scheme"]] = value
    return nodes_list, out


def fig12(profile: str = "paper") -> FigureData:
    _check_profile(profile)
    nodes_list, results = _ig_sweep(profile)
    return FigureData(
        fig_id="fig12",
        title="Index-gather: mean item round-trip latency",
        xlabel="nodes",
        ylabel="latency (us)",
        x=list(nodes_list),
        series=[
            Series(
                s,
                [
                    results[n][s]["round_trip_latency_ns"] / 1e3
                    for n in nodes_list
                ],
            )
            for s in SCHEME_NAMES
        ],
        expected="latency PP < WPs ~ WsP < WW, gap widening with nodes",
    )


def fig13(profile: str = "paper") -> FigureData:
    _check_profile(profile)
    nodes_list, results = _ig_sweep(profile)
    return FigureData(
        fig_id="fig13",
        title="Index-gather: total time",
        xlabel="nodes",
        ylabel="total time (ms)",
        x=list(nodes_list),
        series=[
            Series(s, [results[n][s]["total_time_ns"] / 1e6 for n in nodes_list])
            for s in SCHEME_NAMES
        ],
        expected=(
            "WPs/WsP best overall; WW worst at scale; PP's atomics "
            "overhead visible in total time despite its latency win"
        ),
    )


# ======================================================================
# Fig 14-17 — SSSP small / large
# ======================================================================
@lru_cache(maxsize=4)
def _sssp_sweep(profile: str, size: str):
    if size == "small":
        n_vertices = 2048 if profile == "paper" else 1024
        nodes_list = (2, 4) if profile == "paper" else (2,)
    else:
        # "Large" = high per-PE work: big graph on FEW nodes. At high
        # node counts with little per-PE work the waste spiral of the
        # small-problem regime dominates instead (see EXPERIMENTS.md).
        n_vertices = 8192 if profile == "paper" else 4096
        nodes_list = (1, 2) if profile == "paper" else (2,)
    graph = generate_graph(n_vertices, 8, seed=3)
    out = {}
    for nodes in nodes_list:
        out[nodes] = {
            scheme: run_sssp(
                scaled_machine(nodes), scheme, graph=graph, buffer_items=32
            )
            for scheme in SCHEME_NAMES
        }
    return nodes_list, out


def _sssp_fig(profile: str, size: str, metric: str, fig_id: str) -> FigureData:
    nodes_list, results = _sssp_sweep(profile, size)
    if metric == "time":
        ylabel = "total time (ms)"
        value = lambda r: r.total_time_ns / 1e6  # noqa: E731
        if size == "small":
            expected = "time PP <= WPs ~ WsP < WW"
        else:
            expected = "WPs considerably better than WW"
    else:
        ylabel = "wasted updates (normalized to WW)"
        if size == "small":
            expected = "wasted updates PP < WPs < WW"
        else:
            expected = "no significant wasted-update gap between schemes"
    series = []
    for s in SCHEME_NAMES:
        ys = []
        for n in nodes_list:
            r = results[n][s]
            if metric == "time":
                ys.append(value(r))
            else:
                ww = results[n]["WW"].wasted_updates
                ys.append(r.wasted_updates / ww if ww else 0.0)
        series.append(Series(s, ys))
    return FigureData(
        fig_id=fig_id,
        title=f"SSSP {size} problem: {metric}",
        xlabel="nodes",
        ylabel=ylabel,
        x=list(nodes_list),
        series=series,
        expected=expected,
    )


def fig14(profile: str = "paper") -> FigureData:
    _check_profile(profile)
    return _sssp_fig(profile, "small", "time", "fig14")


def fig15(profile: str = "paper") -> FigureData:
    _check_profile(profile)
    return _sssp_fig(profile, "small", "wasted", "fig15")


def fig16(profile: str = "paper") -> FigureData:
    _check_profile(profile)
    return _sssp_fig(profile, "large", "time", "fig16")


def fig17(profile: str = "paper") -> FigureData:
    _check_profile(profile)
    return _sssp_fig(profile, "large", "wasted", "fig17")


# ======================================================================
# Fig 18 — PHOLD rejected (out-of-order) events
# ======================================================================
def fig18(profile: str = "paper") -> FigureData:
    _check_profile(profile)
    # The paper runs PHOLD with a higher worker-per-process count (32);
    # scaled here to one 8-worker process per node.
    machine = MachineConfig(nodes=2, processes_per_node=1, workers_per_process=8)
    quota = 1500 if profile == "paper" else 400
    rejected, times = [], []
    for scheme in SCHEME_NAMES:
        r = run_phold(
            machine, scheme, lps_per_worker=8, quota_per_worker=quota,
            buffer_items=32,
        )
        rejected.append(float(r.events_rejected))
        times.append(r.total_time_ns / 1e6)
    return FigureData(
        fig_id="fig18",
        title="PHOLD synthetic: rejected (out-of-order) events",
        xlabel="scheme",
        ylabel="rejected events",
        x=list(SCHEME_NAMES),
        series=[Series("rejected", rejected), Series("time_ms", times)],
        expected=">5% fewer rejected events for PP than worker-buffered schemes",
    )


# ======================================================================
# tabA / tabB — §III-C analysis vs measurement
# ======================================================================
def tabA(profile: str = "paper") -> FigureData:
    _check_profile(profile)
    nodes = 4
    g, m = 64, 8
    machine = scaled_machine(nodes)
    measured, analytic = [], []
    for scheme in SCHEME_NAMES:
        r = run_histogram(
            machine, scheme, updates_per_pe=4000, buffer_items=g, batch=1000
        )
        measured.append(float(r.buffer_bytes_allocated))
        analytic.append(
            buffer_bytes_per_process(
                scheme, g, m, machine.total_processes, machine.workers_per_process
            )
            * machine.total_processes
        )
    return FigureData(
        fig_id="tabA",
        title="Memory overhead: measured buffer allocation vs SecIII-C bound",
        xlabel="scheme",
        ylabel="bytes (machine total)",
        x=list(SCHEME_NAMES),
        series=[Series("measured", measured), Series("analytic_max", analytic)],
        expected=(
            "measured <= analytic everywhere; ordering WW >> WPs=WsP > PP "
            "(per-process: g*m*N*t^2 vs g*m*N*t vs g*m*N)"
        ),
    )


def tabB(profile: str = "paper") -> FigureData:
    _check_profile(profile)
    nodes = 4
    g = 64
    machine = scaled_machine(nodes)
    measured, lower, upper = [], [], []
    for scheme in SCHEME_NAMES:
        r = run_histogram(
            machine, scheme, updates_per_pe=4000, buffer_items=g, batch=1000
        )
        measured.append(float(r.messages_sent))
        lo, hi = message_bounds_total(scheme, r.updates_buffered, g, machine)
        lower.append(lo)
        upper.append(hi)
    return FigureData(
        fig_id="tabB",
        title="Message counts: measured vs SecIII-C bounds",
        xlabel="scheme",
        ylabel="aggregated messages",
        x=list(SCHEME_NAMES),
        series=[
            Series("lower_bound", lower),
            Series("measured", measured),
            Series("upper_bound", upper),
        ],
        expected="lower <= measured <= upper for every scheme",
    )


# ======================================================================
# Extension experiments (beyond the paper's figures; DESIGN.md SecVI)
# ======================================================================
def extA(profile: str = "paper") -> FigureData:
    """Node-level aggregation (WNs/NN) on the flush-dominated all-to-all."""
    _check_profile(profile)
    from repro.apps import run_alltoall

    machine = scaled_machine(8 if profile == "paper" else 4)
    schemes = ("WW", "WPs", "PP", "WNs", "NN")
    msgs, times = [], []
    for scheme in schemes:
        r = run_alltoall(machine, scheme, items_per_pair=2, buffer_items=256)
        msgs.append(float(r.messages_sent))
        times.append(r.total_time_ns / 1e6)
    return FigureData(
        fig_id="extA",
        title="Extension: node-level aggregation on all-to-all",
        xlabel="scheme",
        ylabel="aggregated messages / time (ms)",
        x=list(schemes),
        series=[Series("messages", msgs), Series("time_ms", times)],
        expected=(
            "each aggregation level (worker -> process -> node) cuts the "
            "end-of-phase message count; node-level schemes extend the "
            "paper's SecIII-C hierarchy one level up"
        ),
    )


def extB(profile: str = "paper") -> FigureData:
    """Legacy-TRAM 2D routing vs flat WPs on a distance-insensitive fabric."""
    _check_profile(profile)
    from repro.runtime.system import RuntimeSystem
    from repro.tram import TramConfig, make_scheme

    machine = scaled_machine(8 if profile == "paper" else 4)
    items = 400 if profile == "paper" else 150
    names, buffers, latencies, times = [], [], [], []
    for scheme in ("WPs", "R2D"):
        rt = RuntimeSystem(machine, seed=0)
        tram = make_scheme(
            scheme, rt,
            TramConfig(buffer_items=16, item_bytes=8, idle_flush=True),
            deliver_item=lambda ctx, it: None,
        )
        w = machine.total_workers

        def driver(ctx, tram=tram, w=w):
            rng = rt.rng.stream(f"extB/{ctx.worker.wid}")
            for _ in range(items):
                tram.insert(ctx, dst=int(rng.integers(0, w)))

        for wid in range(w):
            rt.post(wid, driver)
        stats = rt.run(max_events=10_000_000)
        names.append(scheme)
        buffers.append(float(tram.stats.buffers_allocated))
        latencies.append(tram.stats.latency.mean / 1e3)
        times.append(stats.end_time / 1e6)
    return FigureData(
        fig_id="extB",
        title="Extension: 2D topological routing (legacy TRAM) vs flat WPs",
        xlabel="scheme",
        ylabel="buffers / latency (us) / time (ms)",
        x=names,
        series=[
            Series("buffers", buffers),
            Series("latency_us", latencies),
            Series("time_ms", times),
        ],
        expected=(
            "routing allocates fewer buffers but pays an extra hop in "
            "latency on a flat fabric — the paper's SecI argument for "
            "dropping topology-aware routing"
        ),
    )


def extC(profile: str = "paper") -> FigureData:
    """Crash matrix: scheme crossover under ``k`` failed processes.

    The scenario the paper never measured: every scheme runs the same
    random-destination insert workload while ``k`` seeded process
    crashes land mid-run, and the figure reports the delivered item
    fraction per scheme at each ``k``. Intermediary-based schemes
    (WPs/R2D/WNs/NN) route items *through* other processes, so a dead
    process costs them in-transit and hosted-buffer items that direct
    WW never risks — while failover routing (R2D alternate column hop,
    WNs round-robin skip) claws part of that gap back. Every run must
    close its conservation ledger exactly (``produced == delivered +
    lost_to_crash + buffered``): an unbalanced ledger is a bug in the
    crash fabric, not a data point, and raises immediately.
    """
    _check_profile(profile)
    from repro.faults import FaultPlan
    from repro.flow import conservation_ledger
    from repro.runtime.system import RuntimeSystem
    from repro.tram import TramConfig, make_scheme

    machine = scaled_machine(4 if profile == "paper" else 2)
    items = 300 if profile == "paper" else 120
    ks = (0, 1, 2)
    schemes = ("WW", "WPs", "PP", "R2D", "WNs", "NN")
    fractions: Dict[str, list] = {name: [] for name in schemes}
    for k in ks:
        # The insert storm drains within ~100-150k simulated ns on this
        # machine, so the window must sit inside the active phase: a
        # later crash would land after quiescence and lose nothing.
        plan = FaultPlan(
            crash_procs=k,
            crash_t_min_ns=5_000.0,
            crash_t_max_ns=40_000.0,
        )
        for name in schemes:
            rt = RuntimeSystem(machine, seed=0, faults=plan)
            tram = make_scheme(
                name, rt,
                TramConfig(buffer_items=16, item_bytes=8, idle_flush=True),
                deliver_item=lambda ctx, it: None,
            )
            w = machine.total_workers

            def driver(ctx, tram=tram, w=w, rt=rt):
                rng = rt.rng.stream(f"extC/{ctx.worker.wid}")
                for _ in range(items):
                    tram.insert(ctx, dst=int(rng.integers(0, w)))

            for wid in range(w):
                rt.post(wid, driver)
            rt.run(max_events=10_000_000)
            ledger = conservation_ledger(rt)
            if ledger["balanced"] is False:
                raise HarnessError(
                    f"extC: conservation ledger unbalanced for "
                    f"scheme={name} k={k}: {ledger}"
                )
            produced = ledger["produced"]
            fractions[name].append(
                ledger["delivered"] / produced if produced else 0.0
            )
    return FigureData(
        fig_id="extC",
        title="Extension: delivered fraction under k process failures",
        xlabel="failed processes (k)",
        ylabel="delivered item fraction",
        x=list(ks),
        series=[Series(name, fractions[name]) for name in schemes],
        expected=(
            "k=0 delivers everything for every scheme; each crash costs "
            "intermediary schemes (WPs/R2D/WNs/NN) in-transit and "
            "hosted-buffer items on top of WW's direct dead-destination "
            "drops, with failover routing bounding the gap; every run "
            "closes its conservation ledger exactly"
        ),
    )


# ======================================================================
# Registry
# ======================================================================
FIGURES: Dict[str, Tuple[Callable[[str], FigureData], str]] = {
    "fig1": (fig1, "ping-pong time vs message size (alpha-beta motivation)"),
    "fig3": (fig3, "PingAck: SMP process counts vs non-SMP"),
    "fig8": (fig8, "histogram SMP (WPs) vs non-SMP, workers/process sweep"),
    "fig9": (fig9, "histogram weak scaling across schemes"),
    "fig10": (fig10, "histogram buffer-size sweep"),
    "fig11": (fig11, "histogram flush-heavy (small z)"),
    "fig12": (fig12, "index-gather latency by scheme"),
    "fig13": (fig13, "index-gather total time by scheme"),
    "fig14": (fig14, "SSSP small: time"),
    "fig15": (fig15, "SSSP small: wasted updates (normalized)"),
    "fig16": (fig16, "SSSP large: time"),
    "fig17": (fig17, "SSSP large: wasted updates (normalized)"),
    "fig18": (fig18, "PHOLD: rejected out-of-order events"),
    "tabA": (tabA, "SecIII-C memory-overhead formulas vs measurement"),
    "tabB": (tabB, "SecIII-C message-count bounds vs measurement"),
    "extA": (extA, "extension: node-level aggregation (WNs/NN) on all-to-all"),
    "extB": (extB, "extension: 2D topological routing vs flat WPs"),
    "extC": (extC, "extension: crash matrix — delivered fraction vs k failures"),
}


def run_figure(
    fig_id: str, profile: str = "paper", metrics_path=None, faults=None,
    flow=None, timeline=None, parallel: int = 1, cache_dir=None,
    fresh: bool = False, status: bool = False, status_json=None,
    retries: int = 0, point_timeout_s=None,
) -> FigureData:
    """Run one registered experiment by id.

    With ``metrics_path`` set, the figure body runs inside an
    :class:`~repro.obs.config.ObsSession` (stage-attributed latency
    spans on) and a schema-versioned JSON artifact with one snapshot per
    simulation run is written there (see :mod:`repro.harness.artifact`).

    With ``faults`` set (a :class:`~repro.faults.FaultPlan` or a spec
    string for :meth:`~repro.faults.FaultPlan.parse`), the figure body
    runs inside a :class:`~repro.faults.FaultSession`: every simulation
    gets seeded fault injection plus the reliable-delivery layer, so the
    figure exercises the degraded data path end to end.

    With ``flow`` set (a :class:`~repro.flow.FlowConfig` or a spec
    string for :meth:`~repro.flow.FlowConfig.parse`), every simulation
    runs with credit-based flow control: bounded comm-thread/NIC
    occupancy, source backpressure and overload escalation.

    With ``timeline`` set (a :class:`~repro.obs.TimelineConfig`), every
    simulation carries the flight recorder: per-run ``timeline`` blocks
    (time-series of queue depth, backlog, credit occupancy, ...) land in
    the metrics artifact.

    ``parallel``/``cache_dir``/``fresh`` configure the sweep pool for
    the figure's grid-shaped bodies (see :mod:`repro.harness.pool`):
    points are dispatched to worker processes and/or replayed from the
    content-addressed result cache, with identical figure data and
    artifact contents either way (modulo the provenance block).
    ``status``/``status_json`` turn on live fleet telemetry while the
    pool runs (see :mod:`repro.harness.fleet`).

    ``retries``/``point_timeout_s`` configure the pool's supervisor:
    failed or hung points are retried with seeded backoff and the
    sweep survives worker crashes. Figures fail fast on an exhausted
    point (no quarantine) — a figure with holes in it is not a figure.

    """
    try:
        fn, _ = FIGURES[fig_id]
    except KeyError:
        raise HarnessError(
            f"unknown figure {fig_id!r}; known: {', '.join(FIGURES)}"
        ) from None
    plan = None
    if faults is not None:
        from repro.faults import FaultPlan

        plan = faults if isinstance(faults, FaultPlan) else FaultPlan.parse(faults)
        if plan.is_noop():
            plan = None
    fcfg = None
    if flow is not None:
        from repro.flow import FlowConfig

        fcfg = flow if isinstance(flow, FlowConfig) else FlowConfig.parse(flow)
        if not fcfg.enabled:
            fcfg = None
    pooled = parallel != 1 or cache_dir is not None
    if (
        metrics_path is None and plan is None and fcfg is None
        and timeline is None and not pooled
    ):
        return fn(profile)

    from contextlib import ExitStack

    from repro.harness.pool import PoolConfig, pool_session

    # The shared sweeps memoize results; a cached hit would run no
    # simulations inside the session (empty artifact / no faults or
    # backpressure applied), and a result computed under a degraded or
    # flow-controlled data path must not leak into later clean
    # invocations.
    _ig_sweep.cache_clear()
    _sssp_sweep.cache_clear()
    session = None
    try:
        with ExitStack() as stack:
            if plan is not None:
                from repro.faults import FaultSession

                stack.enter_context(FaultSession(plan))
            if fcfg is not None:
                from repro.flow import FlowSession

                stack.enter_context(FlowSession(fcfg))
            if metrics_path is not None or timeline is not None:
                from repro.obs import ObsConfig, ObsSession

                session = stack.enter_context(
                    ObsSession(ObsConfig(timeline=timeline))
                )
            # Entered last so forked workers inherit the fault/flow/obs
            # sessions above.
            pool_ctx = stack.enter_context(
                pool_session(
                    PoolConfig(
                        parallel=parallel,
                        cache_dir=cache_dir,
                        cache_read=not fresh,
                        status=status,
                        status_json=status_json,
                        retries=retries,
                        point_timeout_s=point_timeout_s,
                    )
                )
            )
            data = fn(profile)
    finally:
        if (
            plan is not None or fcfg is not None or timeline is not None
            or pooled
        ):
            _ig_sweep.cache_clear()
            _sssp_sweep.cache_clear()
    if metrics_path is not None:
        from dataclasses import asdict

        from repro.harness.artifact import build_metrics_payload, write_metrics_json

        extra = {}
        if plan is not None:
            extra["faults"] = asdict(plan)
        if fcfg is not None:
            extra["flow"] = asdict(fcfg)
        if timeline is not None:
            extra["timeline"] = asdict(timeline)
        provenance = pool_ctx.provenance_payload()
        payload = build_metrics_payload(
            target=fig_id,
            profile=profile,
            runs=session.records,
            figure=data,
            extra_config=extra or None,
            provenance=provenance,
        )
        write_metrics_json(metrics_path, payload)
    return data
