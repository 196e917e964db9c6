"""Fig 18 — PHOLD synthetic: rejected (out-of-order) events.

Besides the paper's qualitative claim, the per-scheme rejected counts
are cross-checked against the committed ``BENCH_fig18.json`` baseline.
The counts are deterministic simulation results, so they must match
exactly on every host. Run it with
``python -m pytest benchmarks/bench_fig18_phold.py -q``.
"""

import json
from pathlib import Path

from conftest import run_once

from repro.harness.figures import fig18

BASELINE = Path(__file__).parent / "BENCH_fig18.json"


def test_fig18_phold_rejected(benchmark):
    data = run_once(benchmark, fig18, "quick")
    rejected = dict(zip(data.x, data.series_by_name("rejected").y))
    # The paper: >5% fewer rejected events for node-aware PP.
    assert rejected["PP"] < 0.95 * rejected["WW"]
    assert rejected["PP"] < 0.97 * rejected["WPs"]
    # Regression gate: the committed baseline pins the exact counts.
    baseline = json.loads(BASELINE.read_text())["results"]
    for scheme, count in rejected.items():
        want = baseline[f"fig18_rejected_{scheme}"]["value"]
        assert count == want, (
            f"fig18 rejected[{scheme}] = {count} deviates from the "
            f"committed BENCH_fig18.json baseline {want}"
        )
