"""The five two-stage sampling strategies.

Each strategy draws a vertex ``i`` with probability ``p_i`` and then a
second vertex ``j`` with conditional probability ``q_{j|i}``:

    optimal       p_i = T_i / (3 T)        q_{j|i} = T_{ij} / (2 T_i)
    qopt-uniform  p_i = 1 / n              q_{j|i} = T_{ij} / (2 T_i)
    qopt-degree   p_i = deg(i) / (2 m)     q_{j|i} = T_{ij} / (2 T_i)
    edge-uniform  p_i = 1 / n              q_{j|i} = 1 / deg(i)  on neighbors
    edge-degree   p_i = deg(i) / (2 m)     q_{j|i} = 1 / deg(i)  on neighbors

where T, T_i, T_{ij} are the total, per-vertex, and per-edge triangle
counts.  "optimal" needs the exact profile up front and has zero
estimator variance; the qopt kinds compute the second-stage weights T_ij
of a first-stage vertex when it is first drawn; the edge kinds draw a
uniform neighbour and need no triangle counts to draw.

A draw whose first-stage vertex admits no valid second stage (no local
triangles for qopt, degree zero for edge-uniform) is *degenerate*: it
contributes a zero-valued trial and consumes no second-stage variate.

``draw`` makes one trial's draw; ``draw_vertices`` and ``second_stage``
make a whole batch of them and consume each substream exactly as that
many calls of ``draw`` would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .exact import (
    TriangleProfile,
    _intersection_size,
    common_neighbour_counts,
    neighbour_local_counts,
)
from .graph import Graph
from .rng import SampleStreams, weighted_choice

OPTIMAL = "optimal"
QOPT_UNIFORM = "qopt-uniform"
QOPT_DEGREE = "qopt-degree"
EDGE_UNIFORM = "edge-uniform"
EDGE_DEGREE = "edge-degree"

SAMPLER_KINDS = (OPTIMAL, QOPT_UNIFORM, QOPT_DEGREE, EDGE_UNIFORM, EDGE_DEGREE)

_Q_OPTIMAL_KINDS = frozenset({OPTIMAL, QOPT_UNIFORM, QOPT_DEGREE})
_DEGREE_P_KINDS = frozenset({QOPT_DEGREE, EDGE_DEGREE})


@dataclass(slots=True)
class TrialDraw:
    """One (i, j) draw with the probabilities that produced it.

    ``degenerate`` marks draws whose chosen ``i`` admits no valid ``j``;
    such trials are worth zero and carry ``j=None, q=0``.
    """

    i: int
    j: int | None
    p_i: float
    q_j_given_i: float
    degenerate: bool = False


@dataclass(frozen=True, eq=False)
class SamplerSpec:
    """A built sampling strategy bound to a graph.

    Immutable after construction; exposes exact probability accessors
    ``p(i)`` and ``q(i, j)`` alongside the drawing machinery.
    """

    kind: str
    graph: Graph
    profile: TriangleProfile | None = None
    _p_weights: np.ndarray | None = None  # first-stage integer weights (int64)
    _p_cum: np.ndarray | None = None  # their running sums
    _p_total: int = 0

    def p(self, i: int) -> float:
        """First-stage probability of vertex ``i``."""
        g = self.graph
        g._check_id(i)
        if self._p_weights is None:
            return 1.0 / g.n
        return self._p_weights.item(i) / self._p_total

    def p_of(self, vertices: np.ndarray):
        """First-stage probabilities of an array of vertices, each equal to ``p``'s."""
        if self._p_weights is None:
            return 1.0 / self.graph.n
        return self._p_weights[vertices] / self._p_total

    def q(self, i: int, j: int) -> float:
        """Conditional probability of ``j`` given ``i``; 0 off support.

        For a degenerate first-stage vertex the conditional distribution
        is undefined and every value reports as 0.
        """
        g = self.graph
        g._check_id(i)
        g._check_id(j)
        if self.kind in _Q_OPTIMAL_KINDS:
            if self.profile is not None:
                delta_i = int(self.profile.per_vertex[i])
                delta_ij = self.profile.edge_count(i, j)
            else:
                weights = neighbour_local_counts(g, i)
                delta_i = int(weights.sum()) // 2
                nb = g.neighbors(i)
                k = int(np.searchsorted(nb, j))
                delta_ij = int(weights[k]) if k < len(nb) and nb[k] == j else 0
            if delta_i == 0:
                return 0.0
            return delta_ij / (2 * delta_i)
        nb = g.neighbors(i)
        k = int(nb.searchsorted(j))
        if k < len(nb) and nb[k] == j:
            return 1.0 / len(nb)
        return 0.0


def build_sampler(g: Graph, kind: str, oracle: TriangleProfile | None = None) -> SamplerSpec:
    """Precompute the tables a strategy needs and return its spec.

    "optimal" requires the exact profile of a graph with at least one
    triangle; the degree-weighted kinds require at least one edge.
    """
    if kind not in SAMPLER_KINDS:
        raise ValueError(f"unknown sampler kind {kind!r}; choose from {SAMPLER_KINDS}")
    if kind == OPTIMAL:
        if oracle is None:
            raise ValueError("optimal sampling requires the exact triangle profile")
        if oracle.total == 0:
            raise ValueError(
                "optimal sampling is undefined on a triangle-free graph: "
                "all first-stage probabilities T_i/(3T) would be 0/0"
            )
        weights = np.asarray(oracle.per_vertex, dtype=np.int64)
    elif kind in _DEGREE_P_KINDS:
        if g.m == 0:
            raise ValueError(f"{kind} sampling is undefined on an edgeless graph (2m = 0)")
        weights = g.degrees
    else:
        return SamplerSpec(kind=kind, graph=g, profile=oracle)
    cum = np.cumsum(weights)
    return SamplerSpec(
        kind=kind, graph=g, profile=oracle, _p_weights=weights, _p_cum=cum, _p_total=int(cum[-1])
    )


def draw_vertices(spec: SamplerSpec, rng: np.random.Generator, size: int | None = None):
    """First-stage draws: ``size`` vertices (one when None) distributed per p.

    Each vertex costs one integer variate, uniform on [0, n) or on
    [0, total weight) and then located in the running sums, so a batch
    consumes ``rng`` exactly as that many single draws do.
    """
    if spec._p_cum is None:
        return rng.integers(spec.graph.n, size=size)
    return spec._p_cum.searchsorted(rng.integers(spec._p_total, size=size), side="right")


def draw_vertex(spec: SamplerSpec, rng: np.random.Generator) -> int:
    """First-stage draw: i distributed per the strategy's p."""
    return int(draw_vertices(spec, rng))


def draw_given_i(spec: SamplerSpec, i: int, rng: np.random.Generator) -> TrialDraw:
    """Second-stage draw for a fixed first-stage vertex ``i``."""
    g = spec.graph
    p_i = spec.p(i)
    nb = g.neighbors(i).tolist()
    if spec.kind in _Q_OPTIMAL_KINDS:
        if spec.kind == OPTIMAL:
            weights = [spec.profile.edge_count(i, j) for j in nb]
        else:
            weights = [_intersection_size(nb, g.neighbors(j).tolist()) for j in nb]
        if not any(weights):
            return TrialDraw(i=i, j=None, p_i=p_i, q_j_given_i=0.0, degenerate=True)
        j, w, total = weighted_choice(nb, weights, rng)
        return TrialDraw(i=i, j=j, p_i=p_i, q_j_given_i=w / total)
    deg = len(nb)
    if deg == 0:
        return TrialDraw(i=i, j=None, p_i=p_i, q_j_given_i=0.0, degenerate=True)
    j = nb[int(rng.integers(deg))]
    return TrialDraw(i=i, j=j, p_i=p_i, q_j_given_i=1.0 / deg)


def draw(spec: SamplerSpec, streams: SampleStreams) -> TrialDraw:
    """One full two-stage draw from the strategy's named substreams."""
    i = draw_vertex(spec, streams.vertices)
    return draw_given_i(spec, i, streams.pairs)


# (first-stage vertices, pairs substream) -> (live, local counts, q); see second_stage
PairDraws = Callable[[np.ndarray, np.random.Generator], tuple[np.ndarray, np.ndarray, np.ndarray]]


def second_stage(spec: SamplerSpec) -> PairDraws:
    """Batched second-stage draws for one run of trials.

    The returned function takes a batch of first-stage vertices and the
    pairs substream.  It returns the mask of the live (non-degenerate)
    trials and, for the live trials in order, the local count T_ij of the
    drawn pair and its conditional probability q_{j|i}.  It draws one
    integer variate per live trial, in trial order, as :func:`draw_given_i`
    does, so batches consume the substream exactly as single draws do.

    The qopt family computes the T_ij of a vertex's neighbours once per
    run, when the vertex is first drawn (at most 2m counts in all).  Its
    draw picks j in proportion to T_ij, so the picked weight is the local
    count.  The edge family draws a uniform neighbour and counts its
    common neighbours.
    """
    g = spec.graph
    if spec.kind not in _Q_OPTIMAL_KINDS:

        def edge_pairs(vertices, rng):
            deg = g.degrees[vertices]
            live = deg > 0
            i, deg = vertices[live], deg[live]
            j = g.indices[g.indptr[i] + rng.integers(0, deg)]
            return live, common_neighbour_counts(g, i, j), 1.0 / deg

        return edge_pairs

    mask = np.zeros(g.n, dtype=bool)
    cache: dict[int, np.ndarray] = {}  # vertex -> T_ij of its neighbours

    def qopt_pairs(vertices, rng):
        distinct, which = np.unique(vertices, return_inverse=True)
        for v in distinct.tolist():
            if v not in cache:
                cache[v] = neighbour_local_counts(g, v, mask)
        # The distinct vertices' counts back to back: the k-th one's end at
        # ends[k], and running[p] sums the counts before position p.
        counts = np.concatenate([cache[v] for v in distinct.tolist()])
        running = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(counts, out=running[1:])
        deg = g.degrees[distinct]
        ends = np.cumsum(deg)
        base = running[ends - deg]
        totals = (running[ends] - base)[which]  # 2 T_i of each trial's vertex
        live = totals > 0
        totals = totals[live]
        pick = base[which[live]] + rng.integers(0, totals)
        local = counts[np.searchsorted(running, pick, side="right") - 1]
        return live, local, local / totals

    return qopt_pairs
