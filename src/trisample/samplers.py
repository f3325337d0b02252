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
estimator variance; the qopt kinds compute the second-stage weights on
the fly per draw; the edge kinds never touch triangle counts at all.

A draw whose first-stage vertex admits no valid second stage (no local
triangles for qopt, degree zero for edge-uniform) is *degenerate*: it
contributes a zero-valued trial and consumes no second-stage variate.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .exact import TriangleProfile, _intersection_size
from .graph import Graph
from .rng import SampleStreams, _bisect_draw, weighted_choice

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
    _p_weights: list[int] | None = None  # first-stage integer weights
    _p_cum: list[int] | None = None  # their running sums
    _p_total: int = 0

    def p(self, i: int) -> float:
        """First-stage probability of vertex ``i``."""
        g = self.graph
        g._check_id(i)
        if self._p_weights is None:
            return 1.0 / g.n
        return self._p_weights[i] / self._p_total

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
                weights = self._edge_local_counts(i)
                delta_i = sum(weights) // 2
                nb = g.adjacency_lists[i]
                delta_ij = 0
                for k, v in enumerate(nb):
                    if v == j:
                        delta_ij = weights[k]
                        break
            if delta_i == 0:
                return 0.0
            return delta_ij / (2 * delta_i)
        nb = g.adjacency_lists[i]
        deg = len(nb)
        if deg == 0:
            return 0.0
        k = bisect_left(nb, j)
        if k < deg and nb[k] == j:
            return 1.0 / deg
        return 0.0

    def _edge_local_counts(self, i: int) -> list[int]:
        """Per-neighbor local triangle counts of ``i``, computed on the fly."""
        adj = self.graph.adjacency_lists
        nb_i = adj[i]
        return [_intersection_size(nb_i, adj[j]) for j in nb_i]


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
        weights = [int(x) for x in oracle.per_vertex]
    elif kind in _DEGREE_P_KINDS:
        if g.m == 0:
            raise ValueError(f"{kind} sampling is undefined on an edgeless graph (2m = 0)")
        weights = g.degree_list
    else:
        return SamplerSpec(kind=kind, graph=g, profile=oracle)
    cum = list(accumulate(weights))
    return SamplerSpec(
        kind=kind, graph=g, profile=oracle, _p_weights=weights, _p_cum=cum, _p_total=cum[-1]
    )


def draw_vertex(spec: SamplerSpec, rng: np.random.Generator) -> int:
    """First-stage draw: i distributed per the strategy's p."""
    if spec._p_cum is None:
        return int(rng.integers(spec.graph.n))
    return _bisect_draw(spec._p_cum, rng)


def draw_given_i(spec: SamplerSpec, i: int, rng: np.random.Generator) -> TrialDraw:
    """Second-stage draw for a fixed first-stage vertex ``i``."""
    g = spec.graph
    p_i = spec.p(i)
    if spec.kind in _Q_OPTIMAL_KINDS:
        nb = g.adjacency_lists[i]
        if spec.kind == OPTIMAL:
            weights = [spec.profile.edge_count(i, j) for j in nb]
        else:
            weights = spec._edge_local_counts(i)
        if not any(weights):
            return TrialDraw(i=i, j=None, p_i=p_i, q_j_given_i=0.0, degenerate=True)
        j, w, total = weighted_choice(nb, weights, rng)
        return TrialDraw(i=i, j=j, p_i=p_i, q_j_given_i=w / total)
    nb = g.adjacency_lists[i]
    deg = len(nb)
    if deg == 0:
        return TrialDraw(i=i, j=None, p_i=p_i, q_j_given_i=0.0, degenerate=True)
    j = nb[int(rng.integers(deg))]
    return TrialDraw(i=i, j=j, p_i=p_i, q_j_given_i=1.0 / deg)


def draw(spec: SamplerSpec, streams: SampleStreams) -> TrialDraw:
    """One full two-stage draw from the strategy's named substreams."""
    i = draw_vertex(spec, streams.vertices)
    return draw_given_i(spec, i, streams.pairs)

