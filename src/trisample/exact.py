"""Exact triangle counting on the CSR arrays.

Counts the total number of triangles together with the per-vertex and
per-edge local counts; every randomized estimator in this package is
tested against these numbers.  :func:`count_exact` closes each wedge of
the degree-ordered orientation (:attr:`Graph.forward_runs`) once, so
that every triangle is counted once, and keeps the per-edge counts as an
int64 array aligned with :meth:`Graph.edge_array`, so the analytics
reduce them with array operations.  The samplers count what their trials
are worth: the edge kinds T_ij for the pairs they draw, with
:func:`common_neighbour_counts`, the qopt kinds T_i of their first-stage
vertices, with :func:`local_triangles`, which marks N(v) and scans only
the forward runs of v's neighbours, so that each edge inside N(v) is met
once, from its lower-ranked end.  All three walk their runs in bounded
windows of :func:`_gathered_runs`.  The edge-key lookups of
:func:`count_exact` and :func:`common_neighbour_counts` go through the
graph's hashed edge filter first, and only the keys it passes are
searched for.
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


# Adjacency entries that the two sampling kernels below gather at a time
# (their window of _gathered_runs); bounds their working memory whatever
# the degrees.
_GATHER = 1 << 18


def _gathered_runs(
    first: np.ndarray, last: np.ndarray, window: int
) -> Iterator[tuple[int, int, np.ndarray, np.ndarray]]:
    """The positions ``range(first[r], last[r])`` of the runs ``r`` back
    to back, at most ``window`` at a time; ``first`` and ``last`` are let
    go once read.

    Yields ``(r0, r1, cuts, positions)`` per window: runs ``r0:r1`` meet
    the window, and run ``r0 + k`` has ``positions[cuts[k]:cuts[k + 1]]``
    in it.  A run may be empty, so a caller that reduces over
    ``cuts[:-1]`` with ``np.add.reduceat`` must pass non-empty runs only.
    """
    bounds = np.zeros(len(first) + 1, dtype=np.int64)
    np.subtract(last, first, out=bounds[1:])
    del last
    np.add.accumulate(bounds[1:], out=bounds[1:])
    shift = first - bounds[:-1]  # run position minus gathered position
    del first
    total = int(bounds[-1])
    for lo in range(0, total, window):
        hi = min(lo + window, total)
        r0 = int(bounds.searchsorted(lo, side="right")) - 1
        r1 = int(bounds.searchsorted(hi))
        cuts = np.minimum(np.maximum(bounds[r0 : r1 + 1], lo), hi) - lo
        yield r0, r1, cuts, shift[r0:r1].repeat(cuts[1:] - cuts[:-1]) + np.arange(lo, hi)


# First-stage vertices whose neighbourhoods one round of local_triangles
# marks: the round's t-th vertex owns bit t of a uint64 word.
_ROUND = 64
# Vertices that gather more entries than this (the forward degrees of
# their neighbours summed) count alone, on a boolean mask.  A uint64 word
# shifted by its slot costs more per gathered entry than a byte; on a
# Chung-Lu graph (n = 5e3, m = 5e4), whose low-degree vertices mostly
# neighbour hubs, it costs more than the rounds save per vertex.
_HUB_LOAD = 4096


def local_triangles(g: Graph, vertices: np.ndarray) -> np.ndarray:
    """T_v of each of the distinct ``vertices``, in their order.

    An edge {j, k} inside N(v) closes one triangle at v, and it is one
    arc of :attr:`Graph.forward_runs`, in the forward run N⁺(j) of its
    lower-ranked end j.  So T_v is the number of entries of the runs
    N⁺(j), j ∈ N(v), that lie in N(v): each such edge is met exactly once.
    A vertex's load is the number of those entries, Σ_{j∈N(v)} deg⁺(j);
    a vertex of load 0 has T_v = 0.  Vertices of load at most
    ``_HUB_LOAD`` share rounds of at most ``_ROUND`` vertices and
    ``_GATHER`` gathered entries: the round's t-th vertex sets bit t of a
    uint64 word at each of its neighbours, and each entry of a neighbour's
    forward run adds bit t of its word to T_v.  A vertex of higher load
    marks its neighbours alone, in a boolean mask, and counts the marked
    entries of their forward runs.  Neighbours with an empty forward run
    are marked but not scanned.
    """
    vertices = np.asarray(vertices, dtype=np.int64)
    triangles = np.zeros(len(vertices), dtype=np.int64)
    touched = np.flatnonzero(g.degrees[vertices] > 0)
    if not len(touched):
        return triangles
    indptr, indices = g.forward_runs
    vertices = vertices[touched]
    deg = g.degrees[vertices]
    # The neighbours of vertices[k] are neighbours[bounds[k]:bounds[k + 1]].
    bounds = np.zeros(len(vertices) + 1, dtype=np.int64)
    np.cumsum(deg, out=bounds[1:])
    neighbours = g.indices[(g.indptr[vertices] - bounds[:-1]).repeat(deg) + np.arange(bounds[-1])]
    ahead = indptr[neighbours + 1] - indptr[neighbours]  # deg⁺ of each neighbour
    loads = np.add.reduceat(ahead, bounds[:-1])
    scanned = ahead > 0  # the neighbours whose forward runs are gathered
    counts = np.zeros(len(vertices), dtype=np.int64)

    mask = np.zeros(g.n, dtype=bool)
    for k in np.flatnonzero(loads > _HUB_LOAD).tolist():
        around = neighbours[bounds[k] : bounds[k + 1]]
        mask[around] = True
        for _, _, _, at in _gathered_runs(indptr[around], indptr[around + 1], _GATHER):
            counts[k] += np.count_nonzero(mask[indices[at]])
        mask[around] = False

    # The light vertices' neighbours, back to back in the same order: the
    # k-th one's are marks[starts[k]:starts[k + 1]], and of those, the
    # ones scanned are rows[firsts[k]:firsts[k + 1]].  The first k of them
    # gather running[k] entries.
    light = (loads > 0) & (loads <= _HUB_LOAD)
    pick = light.repeat(deg)
    marks, rows = neighbours[pick], neighbours[pick & scanned]
    widths = np.add.reduceat(scanned, bounds[:-1], dtype=np.int64)[light]
    deg = deg[light]
    starts = np.concatenate(([0], np.cumsum(deg)))
    firsts = np.concatenate(([0], np.cumsum(widths)))
    running = np.concatenate(([0], np.cumsum(loads[light])))
    light_counts = np.zeros(len(deg), dtype=np.int64)
    words = np.zeros(g.n, dtype=np.uint64)
    k0 = 0
    while k0 < len(deg):
        k1 = int(running.searchsorted(running[k0] + _GATHER, side="right")) - 1
        k1 = min(max(k1, k0 + 1), k0 + _ROUND)
        slot = np.arange(k1 - k0, dtype=np.uint64)
        marked = marks[starts[k0] : starts[k1]]
        np.bitwise_or.at(words, marked, np.left_shift(np.uint64(1), slot.repeat(deg[k0:k1])))
        round_rows, slots = rows[firsts[k0] : firsts[k1]], slot.repeat(widths[k0:k1])
        per_row = np.zeros(len(round_rows), dtype=np.int64)  # marked entries of each row's run
        for r0, r1, cuts, at in _gathered_runs(indptr[round_rows], indptr[round_rows + 1], _GATHER):
            hits = words[indices[at]]
            hits >>= slots[r0:r1].repeat(cuts[1:] - cuts[:-1])
            hits &= np.uint64(1)
            per_row[r0:r1] += np.add.reduceat(hits, cuts[:-1], dtype=np.int64)
        words[marked] = 0
        light_counts[k0:k1] = np.add.reduceat(per_row, firsts[k0:k1] - firsts[k0])
        k0 = k1
    counts[light] = light_counts
    triangles[touched] = counts
    return triangles


def common_neighbour_counts(g: Graph, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|N(a_t) ∩ N(b_t)| for each pair of the equal-length vertex arrays:
    the edge samplers' kernel for the T_ij of the edges they draw.

    No vertex may be isolated (edges qualify).  Scans the run of the
    lower-degree vertex of each pair and probes, for every entry ``k``,
    the key ``min(other, k) * n + max(other, k)``: :attr:`Graph.edge_filter`
    rules out most probes that are not edges, and the rest are looked up
    in :attr:`Graph.edge_keys`.  It costs O(min(deg a_t, deg b_t)) hashes
    per pair, and a binary search of O(log m) for each probe that passes
    the filter, so it suits a few pairs; :func:`count_exact` counts every
    edge at once by closing wedges.
    """
    swap = g.degrees[a] > g.degrees[b]
    a, b = np.where(swap, b, a), np.where(swap, a, b)
    counts = np.zeros(len(a), dtype=np.int64)
    for r0, r1, cuts, at in _gathered_runs(g.indptr[a], g.indptr[a + 1], _GATHER):
        entries = g.indices[at]
        other = b[r0:r1].repeat(cuts[1:] - cuts[:-1])
        probe = np.minimum(other, entries)
        probe *= g.n
        np.maximum(other, entries, out=other)
        probe += other
        hit = np.zeros(len(entries), dtype=bool)
        hit[_find_edges(g, g.edge_keys, probe)[0]] = True
        counts[r0:r1] += np.add.reduceat(hit, cuts[:-1], dtype=np.int64)
    return counts


def _brute_force_total(g: Graph) -> int:
    """Triangle count by enumerating all vertex triples.  O(n^3); n <= 50 only."""
    adj = [set(g.neighbors(i).tolist()) for i in range(g.n)]
    count = 0
    for a, b, c in combinations(range(g.n), 3):
        if b in adj[a] and c in adj[a] and c in adj[b]:
            count += 1
    return count


# Wedges closed per window of count_exact.  A window holds a few int64
# arrays of this length, so the working set stays bounded whatever the
# degrees; 2**14 ran faster than 2**12 and 2**13 on a Chung-Lu graph
# (n = 5e3, m = 5e4) and a G(n, m) graph (n = 2e4, m = 2e5), and faster
# than 2**18 (_GATHER) on the Chung-Lu graph.
_WEDGE_BLOCK = 1 << 14


def _packs(span: int, bits: int) -> bool:
    """Whether a key below ``span``, shifted left by ``bits`` with an index
    in the low bits, fits an int64."""
    return span << bits <= 1 << 63


def _sort_indexed(keys: np.ndarray, span: int) -> tuple[np.ndarray, np.ndarray]:
    """``keys``, each in ``[0, span)``, in ascending order, and the position
    each came from.

    One ``np.sort`` of the keys with their positions packed into the low
    bits, in place of ``keys``, when that fits an int64; an argsort when
    it does not.
    """
    bits = max(len(keys) - 1, 0).bit_length()
    if _packs(span, bits):
        keys <<= bits
        keys |= np.arange(len(keys))
        keys.sort()
        return keys >> bits, keys & ((1 << bits) - 1)
    order = np.argsort(keys)
    return keys[order], order


def _find_edges(g: Graph, keys: np.ndarray, probe: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The entries of ``probe``, canonical keys ``min * n + max``, that are
    edges of ``g``: their positions in ``probe``, and in ``keys``, an
    ascending array that holds every edge's canonical key.

    Only the probes that :attr:`Graph.edge_filter` passes are sorted and
    searched for in ``keys``; sorted, they walk the search tree in order.
    """
    maybe = np.flatnonzero(g.edge_filter.may_hold(probe))
    found, order = _sort_indexed(probe[maybe], g.n * g.n)
    at, hit = _lookup(keys, found)
    return maybe[order[hit]], at[hit]


def count_exact(g: Graph) -> TriangleProfile:
    """Exact total, per-vertex, and per-edge triangle counts.

    In the degree-ordered orientation of :attr:`Graph.forward_runs`, every
    triangle is exactly one closed forward wedge: an arc u -> v, a later
    arc u -> w of the same run (so v < w), and the edge {v, w}.  One sort
    of the arcs' canonical keys ``min * n + max`` gives the rows of
    :meth:`Graph.edge_array` and the arc of each row.  The wedges come
    from :func:`_gathered_runs`, ``_WEDGE_BLOCK`` at a time; the closing
    keys ``v * n + w`` that :attr:`Graph.edge_filter` passes are looked up
    in the edges' keys, and every closed wedge adds 1 to each of its three
    arcs.  The vertex and total counts are derived from the edges' counts.
    On small graphs (n <= 50) the total is cross-checked by direct triple
    enumeration.
    """
    n = g.n
    indptr, dst = g.forward_runs
    m = len(dst)
    ahead = np.diff(indptr)
    src = np.arange(n, dtype=np.int64).repeat(ahead)
    # The edges' keys, ascending, and the arc behind each.
    upper, arc = _sort_indexed(np.minimum(src, dst) * n + np.maximum(src, dst), n * n)
    del src
    # Arc k pairs with the arcs k + 1 up to the end of its run.
    runs = _gathered_runs(np.arange(1, m + 1), indptr[1:].repeat(ahead), _WEDGE_BLOCK)
    del ahead
    arc_counts = np.zeros(m, dtype=np.int64)
    for r0, r1, cuts, second in runs:
        first = np.arange(r0, r1).repeat(np.diff(cuts))
        probe = dst[first] * n
        probe += dst[second]
        wedge, at = _find_edges(g, upper, probe)
        # Each closed wedge is one triangle: 1 for each of its three arcs.
        for closed in (arc[at], first[wedge], second[wedge]):
            np.add.at(arc_counts, closed, 1)
    edge_counts = arc_counts[arc]
    del arc, arc_counts
    edges = np.stack(np.divmod(upper, n), axis=1)

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
        raise AssertionError("wedge-closure count disagrees with triple enumeration")
    return TriangleProfile(total=total, per_vertex=per_vertex, edges=edges, edge_counts=edge_counts)
