"""The one-trial draw path: the reference the batched engine is checked against.

A trial is drawn one variate at a time, with plain Python lists and
scalar generator calls, and valued with its own arithmetic.  It draws j
for every kind.  ``run_trials`` must make the first-stage draws of a
loop over ``draw(spec, streams)``, and the edge kinds' j, and report the
sums of :func:`exact_trial_value` over them, as Fractions, each rounded
once.  A q-optimal draw is worth the same whatever its j, which
``run_trials`` and the stream finalize do not draw.

:func:`reference_p` and :func:`reference_q` give every strategy's p and
q as Fractions, written out from the kind table of
:mod:`trisample.samplers`; :func:`enumerated_expectation` sums a trial's
value over their whole support.  Neighbours are read from the CSR
arrays.  Nothing here is used by the library.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Callable

import numpy as np

from trisample import Graph, SampleStreams, TriangleProfile
from trisample.samplers import EDGE_DEGREE, OPTIMAL, QOPT_DEGREE, _Q_OPTIMAL_KINDS, SamplerSpec


@dataclass(slots=True)
class TrialDraw:
    """One (i, j) draw with the probabilities that produced it.

    ``degenerate`` marks draws whose chosen ``i`` admits no valid ``j``;
    such trials are worth zero and carry ``j=None, q=0``.  ``q_total`` is
    the integer denominator of q: the total of the second-stage weights
    (qopt kinds) or deg(i) (edge kinds).
    """

    i: int
    j: int | None
    p_i: float
    q_j_given_i: float
    degenerate: bool = False
    q_total: int = 0


def weighted_choice(values, weights, rng: np.random.Generator):
    """Pick ``values[k]`` with probability ``weights[k] / total``.

    Weights are nonnegative integers, as a sequence or an integer array.
    Exactly one integer variate in ``[0, total)`` is consumed, and the
    pick depends only on the (value, weight) pairs with positive weight,
    so callers that present the same positive weights -- with or without
    interleaved zeros -- make identical picks from identical generator
    states.

    Returns ``(value, weight, total)`` for the selected entry.
    """
    if isinstance(weights, np.ndarray):
        weights = weights.tolist()
    cumulative = list(accumulate(weights))
    if not cumulative or cumulative[-1] <= 0:
        raise ValueError("weighted_choice requires positive total weight")
    # A zero weight repeats the running sum before it, so bisecting never
    # picks it and it leaves every other pick alone.
    k = bisect_right(cumulative, int(rng.integers(cumulative[-1])))
    return values[k], weights[k], cumulative[-1]


def _intersection_size(a: list[int], b: list[int]) -> int:
    """|a ∩ b| for strictly ascending int lists, by two-pointer merge."""
    ia, ib, count = 0, 0, 0
    la, lb = len(a), len(b)
    while ia < la and ib < lb:
        x, y = a[ia], b[ib]
        if x == y:
            count += 1
            ia += 1
            ib += 1
        elif x < y:
            ia += 1
        else:
            ib += 1
    return count


def neighbours(g: Graph, i: int) -> list[int]:
    """The ascending neighbour run of ``i`` in the CSR arrays; IndexError unless ``i`` is a vertex."""
    if not 0 <= i < g.n:
        raise IndexError(f"vertex id {i} out of range [0,{g.n})")
    return g.indices[g.indptr[i] : g.indptr[i + 1]].tolist()


def has_edge(g: Graph, i: int, j: int) -> bool:
    """True iff {i, j} is an edge; IndexError unless both are vertices."""
    neighbours(g, j)
    return j in neighbours(g, i)


def local_edge_count(g: Graph, i: int, j: int) -> int:
    """Number of triangles through {i, j}: |N(i) ∩ N(j)| if it is an edge, else 0."""
    if i == j:
        raise ValueError("local_edge_count requires two distinct vertices")
    if not has_edge(g, i, j):
        return 0
    return _intersection_size(neighbours(g, i), neighbours(g, j))


def reference_p(g: Graph, profile: TriangleProfile, kind: str) -> list[Fraction]:
    """p_i of every vertex: T_i / 3T, deg(i) / 2m or 1 / n, with T and T_i from ``profile``."""
    if kind == OPTIMAL:
        return [Fraction(t, 3 * profile.total) for t in profile.per_vertex.tolist()]
    if kind in (QOPT_DEGREE, EDGE_DEGREE):
        return [Fraction(d, 2 * g.m) for d in g.degrees.tolist()]
    return [Fraction(1, g.n)] * g.n


def reference_q(g: Graph, profile: TriangleProfile, kind: str) -> Callable[[int, int], Fraction]:
    """q_{j|i}: T_ij / 2T_i for the q-optimal kinds, with T_ij and T_i from ``profile``,
    or 1 / deg(i) on the neighbours of i; 0 off support, and for every j of a
    degenerate i."""
    if kind in _Q_OPTIMAL_KINDS:
        local, twice = profile.per_edge, (2 * profile.per_vertex).tolist()
        # where T_i = 0 every T_ij is too, and the denominator 1 keeps q at 0
        return lambda i, j: Fraction(local.get((min(i, j), max(i, j)), 0), twice[i] or 1)
    runs = [set(neighbours(g, i)) for i in range(g.n)]
    return lambda i, j: Fraction(int(j in runs[i]), len(runs[i]) or 1)


def draw_vertex(spec: SamplerSpec, rng: np.random.Generator) -> int:
    """First-stage draw: i distributed per the strategy's p, with
    :func:`weighted_choice` over the T_i or the degrees of the vertices
    for a weighted kind, else one uniform integer in [0, n)."""
    g = spec.graph
    weights = _first_stage_weights(spec)
    if weights is None:
        return int(rng.integers(g.n))
    return weighted_choice(range(g.n), weights, rng)[0]


def _first_stage_weights(spec: SamplerSpec) -> list[int] | None:
    """The integer weights w_i of p_i = w_i / sum(w): T_i or deg(i); None for
    the uniform kinds, whose weights are all 1."""
    if spec.kind == OPTIMAL:
        return spec.profile.per_vertex.tolist()
    if spec.kind in (QOPT_DEGREE, EDGE_DEGREE):
        return spec.graph.degrees.tolist()
    return None


def _first_stage_p(spec: SamplerSpec, i: int) -> Fraction:
    """p_i: w_i / sum(w) for the weights of :func:`_first_stage_weights`, else 1 / n."""
    weights = _first_stage_weights(spec)
    return Fraction(1, spec.graph.n) if weights is None else Fraction(weights[i], sum(weights))


def _second_stage_weights(spec: SamplerSpec, i: int) -> list[int]:
    """The qopt kinds' second-stage weights T_ij, over the neighbours of ``i``."""
    g = spec.graph
    nb = neighbours(g, i)
    if spec.kind == OPTIMAL:
        return spec.profile.edge_counts_of(np.full(len(nb), i), nb).tolist()
    return [_intersection_size(nb, neighbours(g, j)) for j in nb]


def draw_given_i(spec: SamplerSpec, i: int, rng: np.random.Generator) -> TrialDraw:
    """Second-stage draw for a fixed first-stage vertex ``i``."""
    g = spec.graph
    p_i = float(_first_stage_p(spec, i))
    nb = neighbours(g, i)
    if spec.kind in _Q_OPTIMAL_KINDS:
        weights = _second_stage_weights(spec, i)
        if not any(weights):
            return TrialDraw(i=i, j=None, p_i=p_i, q_j_given_i=0.0, degenerate=True)
        j, w, total = weighted_choice(nb, weights, rng)
        return TrialDraw(i=i, j=j, p_i=p_i, q_j_given_i=w / total, q_total=total)
    deg = len(nb)
    if deg == 0:
        return TrialDraw(i=i, j=None, p_i=p_i, q_j_given_i=0.0, degenerate=True)
    j = nb[int(rng.integers(deg))]
    return TrialDraw(i=i, j=j, p_i=p_i, q_j_given_i=1.0 / deg, q_total=deg)


def draw(spec: SamplerSpec, streams: SampleStreams) -> TrialDraw:
    """One full two-stage draw from the strategy's named substreams."""
    i = draw_vertex(spec, streams.vertices)
    return draw_given_i(spec, i, streams.pairs)


def beta_value(local_count: int, p_i: float, q_j_given_i: float) -> float:
    """Single-trial value T_{ij} / (6 p q)."""
    if local_count == 0:
        return 0.0
    denom = 6.0 * p_i * q_j_given_i
    if denom <= 0.0:
        raise RuntimeError(
            "trial has positive local count but zero draw probability; "
            "the sampler violates its support contract"
        )
    return local_count / denom


def trial_value(g: Graph, d: TrialDraw) -> float:
    """Value of one recorded draw; 0 for degenerate draws."""
    if d.degenerate:
        return 0.0
    return beta_value(local_edge_count(g, d.i, d.j), d.p_i, d.q_j_given_i)


def exact_trial_value(spec: SamplerSpec, d: TrialDraw) -> Fraction:
    """T_ij / (6 p q) of one recorded draw, exactly: p and q as Fractions of
    the integer weights that the draw picked from."""
    if d.degenerate:
        return Fraction(0)
    g = spec.graph
    p = _first_stage_p(spec, d.i)
    local = local_edge_count(g, d.i, d.j)
    if spec.kind in _Q_OPTIMAL_KINDS:
        q = Fraction(_second_stage_weights(spec, d.i)[neighbours(g, d.i).index(d.j)], d.q_total)
    else:
        q = Fraction(1, d.q_total)
    return local / (6 * p * q)


def enumerated_expectation(g: Graph, profile: TriangleProfile, kind: str) -> float:
    """The sum over every pair (i, j) of p_i q_{j|i} times the trial's value, in
    floats, with the reference p and q: the unbiasedness oracle."""
    p, q = reference_p(g, profile, kind), reference_q(g, profile, kind)
    total = 0.0
    for i in range(g.n):
        for j in range(g.n):
            p_i, q_j = float(p[i]), float(q(i, j))
            if p_i * q_j > 0.0:
                total += p_i * q_j * trial_value(g, TrialDraw(i=i, j=j, p_i=p_i, q_j_given_i=q_j))
    return total
