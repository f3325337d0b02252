"""Exact triangle counting on the CSR arrays.

Counts the total number of triangles together with the per-vertex and
per-edge local counts; every randomized estimator in this package is
tested against these numbers.  The per-edge counts come from the same
common-neighbour kernel that the edge samplers use for their trials, and
are kept as an int64 array aligned with :meth:`Graph.edge_array`, so the
analytics reduce them with array operations.  The qopt samplers count
the T_ij around their first-stage vertices with :func:`local_counts_into`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from typing import Iterator

import numpy as np

from .graph import Graph


def _lookup(keys: np.ndarray, probe: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each entry of ``probe`` sits in the ascending ``keys``, and
    whether it is there."""
    at = keys.searchsorted(probe)
    hit = at < len(keys)
    hit[hit] = keys[at[hit]] == probe[hit]
    return at, hit


@dataclass(frozen=True, eq=False)
class TriangleProfile:
    """Exact local-triangle structure of a graph.

    ``total`` is the triangle count and ``per_vertex[i]`` counts the
    triangles incident to vertex ``i``.  ``edges`` holds every edge once,
    as the rows (i, j) with i < j of an ``(m, 2)`` int64 array in
    lexicographic order (:meth:`Graph.edge_array`), and
    ``edge_counts[k]`` counts the triangles containing edge ``edges[k]``.
    The counts are linked by ``total = sum(per_vertex) / 3`` and
    ``per_vertex[i] = sum_j T_ij / 2``.  :attr:`per_edge` gives the same
    per-edge counts as a ``{(i, j): T_ij}`` mapping, built when read.
    """

    total: int
    per_vertex: np.ndarray = field(repr=False)
    edges: np.ndarray = field(repr=False)
    edge_counts: np.ndarray = field(repr=False)

    @cached_property
    def _upper_keys(self) -> np.ndarray:
        """``i * n + j`` for every row (i, j) of ``edges``: ascending."""
        return self.edges[:, 0] * len(self.per_vertex) + self.edges[:, 1]

    def edge_counts_of(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """T_ab for each pair of the equal-length vertex arrays, in either
        orientation; 0 for pairs that are not edges, ids out of range included."""
        a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
        n = len(self.per_vertex)
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        probe = lo * n + hi
        at, hit = _lookup(self._upper_keys, probe)
        hit &= (lo >= 0) & (hi < n)  # an out-of-range pair may share a key with an edge
        counts = np.zeros(len(probe), dtype=np.int64)
        counts[hit] = self.edge_counts[at[hit]]
        return counts

    def edge_count(self, i: int, j: int) -> int:
        """Local count of {i, j}; 0 for non-edges (nothing is stored for them)."""
        return int(self.edge_counts_of(np.array([i]), np.array([j]))[0])

    @property
    def per_edge(self) -> dict[tuple[int, int], int]:
        """``{(i, j): T_ij}`` for every edge, i < j, in lexicographic order."""
        return dict(zip(map(tuple, self.edges.tolist()), self.edge_counts.tolist()))

    @property
    def max_per_vertex(self) -> int:
        return int(self.per_vertex.max()) if self.per_vertex.size else 0

    @property
    def max_per_edge(self) -> int:
        return int(self.edge_counts.max()) if self.edge_counts.size else 0


# Adjacency entries gathered into one temporary array by the array counts
# below; bounds their working memory whatever the degrees.
_GATHER = 1 << 18


def _gathered_runs(g: Graph, rows: np.ndarray) -> Iterator[tuple[int, int, np.ndarray, np.ndarray]]:
    """The neighbour runs of ``rows`` back to back, at most ``_GATHER`` entries at a time.

    Every row must have at least one neighbour.  Yields ``(r0, r1, cuts,
    entries)`` per window: ``rows[r0:r1]`` are the rows whose runs meet
    the window, and row ``r0 + k`` has ``entries[cuts[k]:cuts[k + 1]]`` in it.
    """
    bounds = np.zeros(len(rows) + 1, dtype=np.int64)
    np.add.accumulate(g.degrees[rows], out=bounds[1:])
    shift = g.indptr[rows] - bounds[:-1]  # CSR position minus gathered position
    total = int(bounds[-1])
    for lo in range(0, total, _GATHER):
        hi = min(lo + _GATHER, total)
        r0 = int(bounds.searchsorted(lo, side="right")) - 1
        r1 = int(bounds.searchsorted(hi))
        cuts = np.minimum(np.maximum(bounds[r0 : r1 + 1], lo), hi) - lo
        positions = shift[r0:r1].repeat(cuts[1:] - cuts[:-1]) + np.arange(lo, hi)
        yield r0, r1, cuts, g.indices[positions]


def _run_positions(g: Graph, vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The CSR positions of the neighbour runs of ``vertices``, back to back.

    Returns ``(bounds, positions)``: the run of ``vertices[k]`` is
    ``positions[bounds[k]:bounds[k + 1]]``.
    """
    bounds = np.zeros(len(vertices) + 1, dtype=np.int64)
    np.cumsum(g.degrees[vertices], out=bounds[1:])
    positions = (g.indptr[vertices] - bounds[:-1]).repeat(np.diff(bounds)) + np.arange(bounds[-1])
    return bounds, positions


# First-stage vertices whose neighbourhoods one round of local_counts_into
# marks: the round's t-th vertex owns bit t of a uint64 word.
_ROUND = 64
# Vertices that gather more entries than this (the degrees of their
# neighbours summed) count alone, on a boolean mask.  A uint64 word shifted
# by its slot costs more per gathered entry than a byte; on a Chung-Lu
# graph (n = 5e3, m = 5e4), whose low-degree vertices mostly neighbour
# hubs, it costs more than the rounds save per vertex.
_HUB_LOAD = 4096


def local_counts_into(g: Graph, vertices: np.ndarray, out: np.ndarray) -> None:
    """Write T_vj = |N(v) ∩ N(j)| for every neighbour j of each of the
    distinct ``vertices`` into ``out[indptr[v]:indptr[v + 1]]``.

    ``out`` is an int64 table in CSR order (one entry per adjacency
    entry); its other entries are left as they are.  A vertex's load is
    the number of entries in its neighbours' runs.  Vertices of load at
    most ``_HUB_LOAD`` share rounds of at most ``_ROUND`` vertices and
    ``_GATHER`` gathered entries: the round's t-th vertex sets bit t of a
    uint64 word at each of its neighbours, and each entry k of a
    neighbour j's run adds bit t of word k to T_vj.  A vertex of higher
    load marks its neighbours alone, in a boolean mask.
    """
    vertices = np.asarray(vertices, dtype=np.int64)
    vertices = vertices[g.degrees[vertices] > 0]
    if not len(vertices):
        return
    bounds, positions = _run_positions(g, vertices)
    neighbours = g.indices[positions]
    loads = np.add.reduceat(g.degrees[neighbours], bounds[:-1])
    light = loads <= _HUB_LOAD

    mask = np.zeros(g.n, dtype=bool)
    for k in np.flatnonzero(~light).tolist():
        run = slice(bounds[k], bounds[k + 1])
        rows = neighbours[run]
        counts = np.zeros(len(rows), dtype=np.int64)
        mask[rows] = True
        for r0, r1, cuts, entries in _gathered_runs(g, rows):
            counts[r0:r1] += np.add.reduceat(mask[entries], cuts[:-1], dtype=np.int64)
        mask[rows] = False
        out[positions[run]] = counts

    # The light vertices' entries, back to back in the same order: the
    # k-th one's run is starts[k]:starts[k + 1], and the first k of them
    # gather running[k] entries.
    deg = np.diff(bounds)
    on_light = light.repeat(deg)
    positions, neighbours, deg = positions[on_light], neighbours[on_light], deg[light]
    starts = np.concatenate(([0], np.cumsum(deg)))
    running = np.concatenate(([0], np.cumsum(loads[light])))
    words = np.zeros(g.n, dtype=np.uint64)
    k0 = 0
    while k0 < len(deg):
        k1 = int(running.searchsorted(running[k0] + _GATHER, side="right")) - 1
        k1 = min(max(k1, k0 + 1), k0 + _ROUND)
        rows = neighbours[starts[k0] : starts[k1]]
        slots = np.arange(k1 - k0, dtype=np.uint64).repeat(deg[k0:k1])
        np.bitwise_or.at(words, rows, np.left_shift(np.uint64(1), slots))
        counts = np.zeros(len(rows), dtype=np.int64)
        for r0, r1, cuts, entries in _gathered_runs(g, rows):
            hits = words[entries]
            hits >>= slots[r0:r1].repeat(cuts[1:] - cuts[:-1])
            hits &= np.uint64(1)
            counts[r0:r1] += np.add.reduceat(hits, cuts[:-1], dtype=np.int64)
        words[rows] = 0
        out[positions[starts[k0] : starts[k1]]] = counts
        k0 = k1


def common_neighbour_counts(g: Graph, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|N(a_t) ∩ N(b_t)| for each pair of the equal-length vertex arrays.

    No vertex may be isolated (edges qualify).  Scans the run of the
    lower-degree vertex of each pair and looks every entry ``k`` up as
    the key ``other * n + k`` in :attr:`Graph.edge_keys`.
    """
    swap = g.degrees[a] > g.degrees[b]
    a, b = np.where(swap, b, a), np.where(swap, a, b)
    keys = g.edge_keys
    counts = np.zeros(len(a), dtype=np.int64)
    for r0, r1, cuts, entries in _gathered_runs(g, a):
        probe = (b[r0:r1] * g.n).repeat(cuts[1:] - cuts[:-1]) + entries
        at = np.minimum(keys.searchsorted(probe), len(keys) - 1)
        counts[r0:r1] += np.add.reduceat(keys[at] == probe, cuts[:-1], dtype=np.int64)
    return counts


def _brute_force_total(g: Graph) -> int:
    """Triangle count by enumerating all vertex triples.  O(n^3); n <= 50 only."""
    adj = [set(g.neighbors(i).tolist()) for i in range(g.n)]
    count = 0
    for a, b, c in combinations(range(g.n), 3):
        if b in adj[a] and c in adj[a] and c in adj[b]:
            count += 1
    return count


# Edges counted per call of common_neighbour_counts.  A call over many
# edges fills its _GATHER-entry windows with int64 temporaries: on a
# Chung-Lu graph with n = 5e3 and m = 5e4, one call over all edges raised
# the peak RSS of a process running `trisample exact` and `variance` from
# 48 to 57 MB, and 8192-edge blocks to 53 MB.  _GATHER itself is shared
# with the sampling engine's batched trials and stays as it is.
_EDGE_BLOCK = 1024


def count_exact(g: Graph) -> TriangleProfile:
    """Exact total, per-vertex, and per-edge triangle counts.

    Per-edge counts are |N(i) ∩ N(j)| for every edge i < j, by
    :func:`common_neighbour_counts` in blocks of ``_EDGE_BLOCK`` edges,
    written into one int64 array aligned with :meth:`Graph.edge_array`;
    the vertex and total counts are derived from them.  On small graphs
    (n <= 50) the total is additionally cross-checked by direct triple
    enumeration.
    """
    edges = g.edge_array()
    edge_counts = np.empty(len(edges), dtype=np.int64)
    for lo in range(0, len(edges), _EDGE_BLOCK):
        a, b = edges[lo : lo + _EDGE_BLOCK].T
        edge_counts[lo : lo + len(a)] = common_neighbour_counts(g, a, b)
    per_vertex = np.zeros(g.n, dtype=np.int64)
    np.add.at(per_vertex, edges[:, 0], edge_counts)
    np.add.at(per_vertex, edges[:, 1], edge_counts)
    if np.any(per_vertex % 2):
        raise AssertionError("local vertex counts must be even before halving")
    per_vertex //= 2
    vertex_sum = int(per_vertex.sum())
    if vertex_sum % 3:
        raise AssertionError("vertex counts must sum to a multiple of 3")
    total = vertex_sum // 3
    if g.n <= 50 and _brute_force_total(g) != total:
        raise AssertionError("intersection count disagrees with triple enumeration")
    return TriangleProfile(total=total, per_vertex=per_vertex, edges=edges, edge_counts=edge_counts)
