"""Deterministic graph generation and partitioning for SSSP.

Graphs are produced directly as CSR arrays with ``numpy`` (vectorized,
reproducible from a seed). Two generators:

* ``uniform`` — Erdos–Renyi-style: each vertex draws ``avg_degree``
  neighbours uniformly (multi-edges collapsed);
* ``rmat`` — a recursive-matrix (Graph500-flavoured) skewed-degree
  generator, the shape typical of the irregular applications the paper
  targets.

Vertices are partitioned cyclically over workers (``owner = v % W``),
matching the fine-grained all-to-all traffic of the paper's SSSP.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError


@dataclass(frozen=True)
class Graph:
    """Weighted directed graph in CSR form."""

    num_vertices: int
    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray

    @property
    def num_edges(self) -> int:
        return int(self.indices.shape[0])

    def neighbors(self, v: int):
        """(targets, weights) arrays of vertex ``v``'s out-edges."""
        lo, hi = self.indptr[v], self.indptr[v + 1]
        return self.indices[lo:hi], self.weights[lo:hi]

    def degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])


def _edges_to_csr(n: int, src: np.ndarray, dst: np.ndarray, rng) -> Graph:
    # Drop self loops and duplicate (src, dst) pairs, then sort by src.
    keep = src != dst
    src, dst = src[keep], dst[keep]
    key = src.astype(np.int64) * n + dst
    _, unique_idx = np.unique(key, return_index=True)
    src, dst = src[unique_idx], dst[unique_idx]
    order = np.argsort(src, kind="stable")
    src, dst = src[order], dst[order]
    weights = rng.integers(1, 11, size=src.shape[0]).astype(np.float64)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr, src + 1, 1)
    np.cumsum(indptr, out=indptr)
    return Graph(n, indptr, dst.astype(np.int64), weights)


def generate_uniform(n: int, avg_degree: int, seed: int = 0) -> Graph:
    """Uniform random directed graph with ~``avg_degree`` out-edges."""
    if n < 2 or avg_degree < 1:
        raise ConfigError("need n >= 2 and avg_degree >= 1")
    rng = np.random.default_rng(seed)
    m = n * avg_degree
    src = rng.integers(0, n, size=m)
    dst = rng.integers(0, n, size=m)
    return _edges_to_csr(n, src, dst, rng)


def generate_rmat(
    n: int,
    avg_degree: int,
    seed: int = 0,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
) -> Graph:
    """R-MAT (Graph500-style) skewed random graph.

    ``n`` is rounded up to the next power of two internally; vertices
    beyond the requested ``n`` are folded back with a modulo, preserving
    the skew.
    """
    if n < 2 or avg_degree < 1:
        raise ConfigError("need n >= 2 and avg_degree >= 1")
    if not 0 < a + b + c < 1:
        raise ConfigError("require 0 < a+b+c < 1")
    rng = np.random.default_rng(seed)
    scale = int(np.ceil(np.log2(n)))
    m = n * avg_degree
    src = np.zeros(m, dtype=np.int64)
    dst = np.zeros(m, dtype=np.int64)
    for level in range(scale):
        r = rng.random(m)
        # Quadrant probabilities: a (0,0), b (0,1), c (1,0), d (1,1).
        go_right = ((r >= a) & (r < a + b)) | (r >= a + b + c)
        go_down = r >= a + b
        src = src * 2 + go_down
        dst = dst * 2 + go_right
    src %= n
    dst %= n
    return _edges_to_csr(n, src, dst, rng)


def generate_graph(
    n: int, avg_degree: int, seed: int = 0, kind: str = "uniform"
) -> Graph:
    """Dispatch on ``kind`` (``uniform`` or ``rmat``)."""
    if kind == "uniform":
        return generate_uniform(n, avg_degree, seed)
    if kind == "rmat":
        return generate_rmat(n, avg_degree, seed)
    raise ConfigError(f"unknown graph kind {kind!r}")


def owner_of(vertex: int, total_workers: int) -> int:
    """Cyclic partition: the worker owning ``vertex``."""
    return vertex % total_workers


def to_networkx(graph: Graph):
    """Convert to a ``networkx.DiGraph`` (optional dependency)."""
    import networkx as nx

    g = nx.DiGraph()
    g.add_nodes_from(range(graph.num_vertices))
    for v in range(graph.num_vertices):
        targets, weights = graph.neighbors(v)
        for u, w in zip(targets.tolist(), weights.tolist()):
            g.add_edge(v, u, weight=w)
    return g
