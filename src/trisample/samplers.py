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
estimator variance; the edge kinds draw a uniform neighbour and need no
triangle counts to draw.  Under q_{j|i} = T_{ij} / (2 T_i) a trial is
worth the same whatever j is, so the q-optimal kinds value it from T_i
and draw no j (see :func:`second_stage`); :meth:`SamplerSpec._q_ratio`
still gives their second stage from the exact profile, for the variance
analytics.

A draw whose first-stage vertex admits no valid second stage (no local
triangles for qopt, degree zero for edge-uniform) is *degenerate*: it
contributes a zero-valued trial and consumes no second-stage variate.

``draw_vertices`` and ``second_stage`` make a whole batch of draws and
consume each substream exactly as that many one-trial draws would, bar
the j of the q-optimal kinds, which is not drawn.  The optimal first
stage is the package's one weighted draw, a search of the running sum of
the T_i; the degree kinds' first stage needs no search: it draws a
uniform adjacency slot and takes its row (see :func:`draw_vertices`).
The one-trial draw path they are checked against lives with the tests,
in ``tests/trial_reference.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .exact import (
    TriangleProfile,
    _check_profile,
    _lookup,
    _sort_indexed,
    common_neighbour_counts,
    local_triangles,
)
from .graph import Graph

OPTIMAL = "optimal"
QOPT_UNIFORM = "qopt-uniform"
QOPT_DEGREE = "qopt-degree"
EDGE_UNIFORM = "edge-uniform"
EDGE_DEGREE = "edge-degree"

SAMPLER_KINDS = (OPTIMAL, QOPT_UNIFORM, QOPT_DEGREE, EDGE_UNIFORM, EDGE_DEGREE)

_Q_OPTIMAL_KINDS = frozenset({OPTIMAL, QOPT_UNIFORM, QOPT_DEGREE})
_DEGREE_P_KINDS = frozenset({QOPT_DEGREE, EDGE_DEGREE})


@dataclass(frozen=True, eq=False)
class SamplerSpec:
    """A built sampling strategy bound to a graph.

    Immutable after construction.  p_i is ``_p_weights[i] / _p_total``
    (1 / n for the uniform kinds, which have no weights), and
    :meth:`_q_ratio` gives q_{j|i} as a ratio of integers.
    """

    kind: str
    graph: Graph
    profile: TriangleProfile | None = None
    _p_weights: np.ndarray | None = None  # first-stage integer weights (int64)
    _p_total: int = 0  # W, their sum: n for the uniform kinds, whose weights are all 1

    def _q_ratio(self, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(x, y)``, int64 arrays with q_{b_t|a_t} = x / y and x = 0 off support, for
        ids in range: (T_ab, 2 T_a) for the q-optimal kinds, read from the spec's profile,
        which they need here; ([ab is an edge], deg(a)) for the edge kinds.
        ``analytics.variance_generic`` sums them."""
        g = self.graph
        if self.kind not in _Q_OPTIMAL_KINDS:  # search the sorted keys a * n + b in order
            keys, order = _sort_indexed(a * g.n + b, g.n * g.n)
            x = np.empty(len(a), dtype=np.int64)
            x[order] = _lookup(g.edge_keys, keys)[1]
            return x, g.degrees[a]
        return self.profile.edge_counts_of(a, b), 2 * self.profile.per_vertex[a]


def build_sampler(g: Graph, kind: str, oracle: TriangleProfile | None = None) -> SamplerSpec:
    """Precompute the tables a strategy needs and return its spec.

    Every kind requires at least one vertex, and a given ``oracle`` must
    be the profile of a graph of ``g.n`` vertices.  "optimal" requires the
    exact profile of a graph with at least one triangle; the
    degree-weighted kinds require at least one edge.
    """
    if kind not in SAMPLER_KINDS:
        raise ValueError(f"unknown sampler kind {kind!r}; choose from {SAMPLER_KINDS}")
    if g.n == 0:
        raise ValueError(f"{kind} sampling is undefined on a graph with no vertices")
    if oracle is not None:
        _check_profile(g, oracle)
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
        return SamplerSpec(kind=kind, graph=g, profile=oracle, _p_total=g.n)
    return SamplerSpec(
        kind=kind, graph=g, profile=oracle, _p_weights=weights, _p_total=int(weights.sum())
    )


def draw_vertices(spec: SamplerSpec, rng: np.random.Generator, size: int) -> np.ndarray:
    """First-stage draws: ``size`` vertices distributed per p.

    Each vertex costs one integer variate ``u``: uniform on [0, n); for
    the degree kinds, a uniform adjacency slot in [0, 2m) whose row is the
    vertex; for optimal, one in [0, W), and the vertex is the first whose
    running sum of weights exceeds ``u``, so each vertex is drawn with
    probability w_i / W.  A zero weight repeats the running sum before
    it: it is never drawn and moves no other draw.  The slot's row is the
    vertex that the same search over the degrees gives, since the slots
    of vertex i are the deg(i) positions after those of the vertices
    below it.  So a batch consumes ``rng`` exactly as that many single
    draws do.
    """
    g = spec.graph
    if spec._p_weights is None:
        return rng.integers(g.n, size=size)
    if spec.kind in _DEGREE_P_KINDS:
        return g.edge_keys[rng.integers(0, 2 * g.m, size)] // g.n
    u = rng.integers(0, spec._p_total, size)
    return np.cumsum(spec._p_weights).searchsorted(u, side="right")


# (vertices, pairs substream) -> (live, num, den); see second_stage
TrialTerms = Callable[
    [np.ndarray, np.random.Generator], tuple[np.ndarray, np.ndarray, np.ndarray | int]
]


def second_stage(spec: SamplerSpec) -> TrialTerms:
    """Batched second stages for one run of trials, valued in integers.

    The returned function takes a batch of first-stage vertices and the
    pairs substream.  It returns the mask of the live (non-degenerate)
    trials and, for the live trials in order, the integers num and den
    of the module table of :mod:`~trisample.estimator`: each trial is
    worth (W / 6) * num / den.

    Under q_{j|i} = T_ij / 2 T_i, a trial is worth T_ij / (6 p_i q_{j|i}) =
    2 T_i / (6 p_i) whatever j is, so the q-optimal kinds draw no j and
    consume no variate.  Optimal draws only vertices with T_i > 0, and
    each of its trials is worth (W / 6) * 2.  The qopt kinds read T_i
    from the spec's profile when it has one; otherwise they count T_i of
    a vertex when it is first drawn, for all the batch's new vertices at
    once.  A trial is live when T_i > 0.  The edge kinds draw a uniform
    neighbour j of each vertex of positive degree, one integer variate per
    live trial in trial order, so batches consume the substream exactly
    as one-trial draws do, and count the common neighbours T_ij.
    """
    g = spec.graph
    if spec.kind == OPTIMAL:
        return lambda vertices, rng: (
            np.ones(len(vertices), dtype=bool),
            np.full(len(vertices), 2, dtype=np.int64),
            1,
        )

    if spec.kind in _Q_OPTIMAL_KINDS:
        if spec.profile is not None:  # every T_v is known: the table is read, never written
            triangles = np.asarray(spec.profile.per_vertex, dtype=np.int64)
        else:
            triangles = np.full(g.n, -1, dtype=np.int64)  # T_v, or -1 until v is drawn

        def qopt_terms(vertices, rng):
            new = np.unique(vertices[triangles[vertices] < 0])
            if len(new):
                triangles[new] = local_triangles(g, new)
            t = triangles[vertices]
            live = t > 0
            return live, 2 * t[live], g.degrees[vertices[live]] if spec.kind == QOPT_DEGREE else 1

        return qopt_terms

    def edge_terms(vertices, rng):
        deg = g.degrees[vertices]
        live = deg > 0
        i, deg = vertices[live], deg[live]
        j = g.indices[g.indptr[i] + rng.integers(0, deg)]
        local = common_neighbour_counts(g, i, j)
        return live, local * deg if spec.kind == EDGE_UNIFORM else local, 1

    return edge_terms
