"""Content-addressed result cache for sweep points.

Every sweep point — one ``fn(seed=..., **params)`` invocation — is
keyed by a stable hash over everything that determines its result:

* the point *tag* (a stable name for the metric function),
* the resolved parameters and the seed,
* the cost-model constants (so recalibrating the simulator invalidates
  every cached point automatically),
* a fingerprint of the simulator's source (so any code edit that could
  change a result invalidates every cached point too),
* the ambient fault plan and flow-control config, when active.

Completed points are persisted as individual JSON artifacts under a
cache directory (``<root>/<key[:2]>/<key>.json``, fsync'd and written
atomically), so re-runs of identical points are free and an interrupted
sweep — budget stop, drain signal or ``kill -9`` alike — is resumable:
the next invocation finds the finished points on disk and executes only
the missing ones. The cache is the only resume state a sweep has.

The simulator is deterministic per seed, which is what makes caching by
inputs sound: a hit replays the exact value (and observability records)
the execution would have produced.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
from pathlib import Path
from typing import Any, Dict, Iterator, Mapping, Optional

#: Bump on any change that invalidates previously cached points
#: (entry layout, key ingredients, record semantics).
CACHE_SCHEMA = "repro.sweep-cache/2"

#: Subpackages of :mod:`repro` whose code determines simulated results.
#: The harness, observability and analysis layers only run, record or
#: summarize points, so editing them keeps cached points valid.
SIM_PACKAGES = (
    "sim", "runtime", "tram", "network", "machine", "apps", "faults", "flow",
)


def _jsonable(obj: Any) -> Any:
    """JSON fallback mirroring :mod:`repro.harness.artifact`."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return dataclasses.asdict(obj)
    if hasattr(obj, "item"):  # numpy scalar
        return obj.item()
    if hasattr(obj, "tolist"):  # numpy array
        return obj.tolist()
    if isinstance(obj, Path):
        return str(obj)
    raise TypeError(f"not JSON-serializable: {type(obj).__name__}")


def cost_model_fingerprint(costs: Any = None) -> Dict[str, Any]:
    """The cost-model constants that feed every simulated result.

    ``None`` fingerprints the default :class:`~repro.machine.costs.CostModel`,
    so editing any calibration constant in the source invalidates the
    cache without manual intervention.
    """
    from repro.machine.costs import CostModel

    model = costs if costs is not None else CostModel()
    return dataclasses.asdict(model)


@functools.lru_cache(maxsize=None)
def source_fingerprint() -> str:
    """sha256 over the source files of :data:`SIM_PACKAGES`.

    Hashes every ``.py`` file's package-relative path and bytes in
    sorted order. Computed on first use and then memoized for the life
    of the process (forked sweep workers inherit it), so importing
    :mod:`repro` stays free of file reads.
    """
    import repro

    root = Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    for package in SIM_PACKAGES:
        for path in sorted((root / package).rglob("*.py")):
            digest.update(path.relative_to(root).as_posix().encode("utf-8"))
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
    return digest.hexdigest()


def point_key(
    *,
    tag: str,
    params: Mapping[str, Any],
    seed: int,
    costs: Any = None,
    faults: Any = None,
    flow: Any = None,
    obs: Any = None,
) -> str:
    """Stable content hash identifying one sweep point.

    ``faults`` / ``flow`` are the ambient :class:`~repro.faults.FaultPlan`
    and :class:`~repro.flow.FlowConfig` (or ``None``); they are folded in
    as dataclass dicts so a degraded or flow-controlled sweep never
    shares entries with a clean one. ``obs`` is the ambient
    :class:`~repro.obs.TimelineConfig` when the flight recorder is on:
    timeline-bearing records must not replay into (or from) plain runs.
    It is folded in only when set, so enabling the recorder never
    invalidates existing plain-run caches.
    """
    payload = {
        "schema": CACHE_SCHEMA,
        "tag": tag,
        "params": dict(params),
        "seed": int(seed),
        "costs": cost_model_fingerprint(costs),
        "source": source_fingerprint(),
        "faults": faults,
        "flow": flow,
    }
    if obs is not None:
        payload["obs"] = obs
    blob = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=_jsonable
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class ResultCache:
    """Directory of per-point result artifacts, addressed by content key.

    Entries are plain JSON documents::

        {"schema": "repro.sweep-cache/2", "key": ..., "tag": ...,
         "params": {...}, "seed": 0, "value": <metric payload>,
         "records": [<run snapshot>, ...], "meta": {"wall_s": ..., ...}}

    Reads tolerate missing/corrupt/foreign files (they count as misses);
    a corrupt or mismatched entry is additionally quarantined once —
    renamed to ``<key>.bad`` — so every later run misses it by file
    absence instead of re-parsing the same broken JSON, and the evidence
    survives for inspection. Writes are durable and atomic (tempfile,
    flush + ``os.fsync``, then ``os.replace``), so a killed sweep never
    leaves a half-written entry behind and an entry's bytes reach stable
    storage before it becomes visible.
    """

    def __init__(self, root: Any) -> None:
        self.root = Path(root)

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt entry aside (once) so it never re-parses."""
        try:
            os.replace(path, path.with_suffix(".bad"))
        except OSError:  # pragma: no cover - raced or read-only cache
            pass

    def get(self, key: str) -> Optional[dict]:
        """The cached entry for ``key``, or ``None`` on any miss."""
        path = self.path_for(key)
        try:
            text = path.read_text()
        except OSError:
            return None  # plain miss: nothing to quarantine
        try:
            entry = json.loads(text)
        except ValueError:
            self._quarantine(path)
            return None
        if (
            not isinstance(entry, dict)
            or entry.get("schema") != CACHE_SCHEMA
            or entry.get("key") != key
        ):
            self._quarantine(path)
            return None
        return entry

    def put(self, key: str, entry: Mapping[str, Any]) -> Path:
        """Persist one completed point atomically. Returns its path."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = dict(entry)
        doc["schema"] = CACHE_SCHEMA
        doc["key"] = key
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        with tmp.open("w") as fh:
            fh.write(json.dumps(doc, default=_jsonable) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        return path

    def keys(self) -> Iterator[str]:
        if not self.root.is_dir():
            return
        for path in sorted(self.root.glob("*/*.json")):
            yield path.stem

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for key in list(self.keys()):
            try:
                self.path_for(key).unlink()
                removed += 1
            except OSError:
                pass
        return removed
