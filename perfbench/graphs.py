"""Seeded graph generators and the edge-list writer for the benchmark.

Every generator takes a ``numpy.random.Generator`` built from the
workload seed and returns canonical edges: an ``(m, 2)`` int64 array of
unique pairs with ``u < v``.  The same seed gives the same graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GraphFile:
    """An edge-list file written by :func:`write_edge_list` and its shape."""

    path: str
    n: int
    m: int
    lines: int  # every line of the file, header included
    max_degree: int


def _canonical_keys(u: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    keep = u != v
    u, v = u[keep], v[keep]
    return np.minimum(u, v) * n + np.maximum(u, v)


def _first_unique(keys: np.ndarray) -> np.ndarray:
    """Distinct keys in order of first appearance."""
    _, first = np.unique(keys, return_index=True)
    return keys[np.sort(first)]


def _collect_edges(draw_pairs, n: int, m: int) -> np.ndarray:
    """Draw endpoint pairs until ``m`` distinct non-loop edges are found."""
    keys = np.zeros(0, dtype=np.int64)
    while keys.size < m:
        need = m - keys.size
        u, v = draw_pairs(need + need // 4 + 64)
        keys = _first_unique(np.concatenate([keys, _canonical_keys(u, v, n)]))
    keys = keys[:m]
    return np.stack([keys // n, keys % n], axis=1)


def uniform_graph(n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """G(n, m): ``m`` distinct edges drawn uniformly from all vertex pairs."""

    def draw_pairs(k):
        return rng.integers(n, size=k), rng.integers(n, size=k)

    return _collect_edges(draw_pairs, n, m)


def chung_lu_graph(
    n: int, m: int, gamma: float, offset: float, rng: np.random.Generator
) -> np.ndarray:
    """Chung–Lu graph with power-law expected degrees, exponent ``gamma``.

    Vertex ``k`` gets weight ``(k + offset) ** (-1 / (gamma - 1))``; each
    edge picks both endpoints in proportion to the weights, and repeated
    pairs and self-loops are redrawn until ``m`` distinct edges exist.
    ``offset`` caps the largest expected degree.  Vertex ids are shuffled
    so that hubs are spread over the id range.
    """
    weights = (np.arange(n, dtype=np.float64) + offset) ** (-1.0 / (gamma - 1.0))
    cum = np.cumsum(weights)
    cum /= cum[-1]

    def draw_pairs(k):
        ends = np.minimum(np.searchsorted(cum, rng.random(2 * k), side="right"), n - 1)
        return ends[:k], ends[k:]

    edges = _collect_edges(draw_pairs, n, m)
    relabel = rng.permutation(n)
    edges = relabel[edges]
    edges.sort(axis=1)
    return edges


def write_edge_list(edges: np.ndarray, n: int, path: str, rng: np.random.Generator) -> GraphFile:
    """Write edges in shuffled order and orientation, under a ``# n=`` header."""
    order = rng.permutation(len(edges))
    flip = rng.random(len(edges)) < 0.5
    rows = edges[order]
    rows[flip] = rows[flip][:, ::-1]
    body = "\n".join(f"{u} {v}" for u, v in rows.tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# n={n}\n{body}\n")
    degrees = np.bincount(edges.ravel(), minlength=n)
    return GraphFile(
        path=path, n=n, m=len(edges), lines=len(edges) + 1, max_degree=int(degrees.max())
    )
