"""Closed-form estimator variance and sample-size planning.

The variance of a single trial under first/second-stage probabilities
(p, q) is

    Var = (1/36) * sum_{i,j} T_{ij}^2 / (p_i q_{j|i})  -  T^2

summed over ordered pairs with T_{ij} > 0; the variance of the mean of
``s`` trials is that divided by s.  Each built-in strategy also has a
specialized closed form, and the two must agree; both are exposed so
they can be checked against each other.  Both read the profile's arrays:
the generic sum is one float64 array expression over the strategy's
``p_of`` and ``q_of``, and the closed forms sum exactly per denominator
with the trial engine's :func:`~trisample.estimator._sums_by_den` and
divide once, exactly, so their single-trial variance is correctly rounded.

Sample-size planning inverts the exponential tail bound
exp(-eps^2 s avg / (2 ub)) <= n^(-c) for the smallest integer s, where
``ub`` bounds every local count and ``avg`` is the mean local count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .estimator import _sums_by_den
from .exact import TriangleProfile, _check_profile
from .graph import Graph
from .samplers import (
    EDGE_DEGREE,
    EDGE_UNIFORM,
    OPTIMAL,
    QOPT_DEGREE,
    QOPT_UNIFORM,
    SAMPLER_KINDS,
    build_sampler,
)

VERTEX_BOUND = "vertex"
EDGE_BOUND = "edge"


@dataclass(frozen=True)
class VarianceReport:
    """Specialized and generic variance of one strategy at trial count s."""

    kind: str
    s: int
    analytical_variance: float
    generic_variance: float


@dataclass(frozen=True)
class ChernoffPlan:
    """Planned trial count for a relative-error target.

    ``upper_bound`` dominates every per-vertex (or per-edge) local
    triangle count and ``average`` is the triangle count divided by n
    (or m).  Running ``s`` trials keeps the relative overestimation
    error below ``epsilon`` except with probability n^(-c).
    """

    epsilon: float
    c: float
    bound_kind: str
    upper_bound: float
    average: float
    s: int


def variance_from_probabilities(
    profile: TriangleProfile,
    p_of: Callable[[np.ndarray], np.ndarray | float],
    q_of: Callable[[np.ndarray, np.ndarray], np.ndarray],
    s: int = 1,
) -> float:
    """Evaluate the generic variance sum for arbitrary (p, q) array accessors.

    ``p_of(a)`` gives the first-stage probabilities of a vertex array and
    ``q_of(a, b)`` the conditional probabilities of the pairs (a_t, b_t),
    as :meth:`SamplerSpec.p_of` and :meth:`SamplerSpec.q_of` do.  Every
    ordered pair with a positive local count must have positive draw
    probability, otherwise the estimator the probabilities describe is
    not even unbiased and the sum is meaningless; the error names the
    first such pair, edges in lexicographic order and (i, j) before
    (j, i).
    """
    if s < 1:
        raise ValueError("trial count must be at least 1")
    live = np.flatnonzero(profile.edge_counts)
    c = profile.edge_counts[live]
    i, j = profile.edges[live].T
    # Every (i, j) with i < j, then every (j, i), one half at a time to
    # halve the accessors' temporaries.  Only the first half is in
    # ascending key order; the accessors sort the pairs they look up.
    pq = np.stack([p_of(i) * q_of(i, j), p_of(j) * q_of(j, i)])
    bad = pq <= 0.0
    if bad.any():
        k = int(bad.any(axis=0).argmax())
        pair = (i[k], j[k]) if bad[0, k] else (j[k], i[k])
        raise ValueError(
            f"support violation: pair ({pair[0]},{pair[1]}) has local count {c[k]} "
            "but zero draw probability"
        )
    acc = float(np.sum(np.square(c, dtype=np.float64) / pq))
    return (acc / 36.0 - profile.total**2) / s


def variance_generic(g: Graph, profile: TriangleProfile, kind: str, s: int = 1) -> float:
    """Generic variance sum evaluated with the strategy's own accessors."""
    spec = build_sampler(g, kind, profile)
    return variance_from_probabilities(profile, spec.p_of, spec.q_of, s)


def variance_closed_form(g: Graph, profile: TriangleProfile, kind: str, s: int = 1) -> float:
    """Specialized variance formula for each built-in strategy.

    The single-trial variance is a sum of squared local counts, less T^2:

        qopt-uniform  (n / 9) sum_i T_i^2
        qopt-degree   (2m / 9) sum_i T_i^2 / deg(i)
        edge-uniform  (n / 36) sum_{i<j} (deg(i) + deg(j)) T_ij^2
        edge-degree   (m / 9) sum_{i<j} T_ij^2

    each summed exactly per denominator by
    :func:`~trisample.estimator._sums_by_den`, then divided once, exactly,
    so it is correctly rounded: exactly 0.0 where it is 0.  The variance
    of ``s`` trials is that float divided by ``s``.
    """
    if s < 1:
        raise ValueError("trial count must be at least 1")
    if kind not in SAMPLER_KINDS:
        raise ValueError(f"unknown sampler kind {kind!r}; choose from {SAMPLER_KINDS}")
    _check_profile(g, profile)
    if kind == OPTIMAL:
        return 0.0
    tri, counts = profile.per_vertex, profile.edge_counts
    if kind == QOPT_UNIFORM:
        scale, k, acc = g.n, 9, sum(_sums_by_den(tri)[2])
    elif kind == QOPT_DEGREE:
        live = tri > 0  # so deg(i) >= 2
        dens, _, squares = _sums_by_den(tri[live], g.degrees[live])
        lcm = math.lcm(*dens)  # acc / lcm is the sum of T_i^2 / deg(i)
        scale, k, acc = 2 * g.m, 9 * lcm, sum(b * (lcm // d) for d, b in zip(dens, squares))
    elif kind == EDGE_UNIFORM:
        live = np.flatnonzero(counts)
        i, j = profile.edges[live].T
        dens, _, squares = _sums_by_den(counts[live], g.degrees[i] + g.degrees[j])
        scale, k, acc = g.n, 36, sum(d * b for d, b in zip(dens, squares))
    else:
        scale, k, acc = g.m, 9, sum(_sums_by_den(counts)[2])
    return float(Fraction(scale * acc, k) - profile.total**2) / s


def variance_report(g: Graph, profile: TriangleProfile, kind: str, s: int = 1) -> VarianceReport:
    return VarianceReport(
        kind=kind,
        s=s,
        analytical_variance=variance_closed_form(g, profile, kind, s),
        generic_variance=variance_generic(g, profile, kind, s),
    )


def chernoff_sample_size(
    epsilon: float, c: float, universe: int, upper_bound: float, average: float
) -> int:
    """Smallest s with exp(-eps^2 s avg / (2 ub)) <= universe^(-c).

    ``universe`` is the vertex count n entering the n^(-c) failure
    target; the same inversion serves both the per-vertex and per-edge
    plans.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie strictly between 0 and 1")
    if c <= 0.0:
        raise ValueError("failure exponent c must be positive")
    if universe < 2:
        raise ValueError("universe size must be at least 2")
    if average <= 0.0:
        raise ValueError(
            "average local count is 0 (triangle-free input): "
            "no finite trial count gives a relative guarantee"
        )
    if upper_bound < average:
        raise ValueError("upper_bound must be at least the average")
    if epsilon * epsilon == 0.0:
        raise ValueError(f"epsilon = {epsilon!r} squares to 0 in floating point")
    s = 2.0 * c * (upper_bound / average) * math.log(universe) / (epsilon * epsilon)
    if not math.isfinite(s):
        raise ValueError(f"the trial count 2 c (bound/average) ln(n) / epsilon^2 is {s}, not finite")
    return max(math.ceil(s), 1)


def make_plan(
    epsilon: float,
    c: float,
    universe: int,
    upper_bound: float,
    average: float,
    bound_kind: str,
) -> ChernoffPlan:
    if bound_kind not in (VERTEX_BOUND, EDGE_BOUND):
        raise ValueError(f"bound_kind must be {VERTEX_BOUND!r} or {EDGE_BOUND!r}")
    s = chernoff_sample_size(epsilon, c, universe, upper_bound, average)
    return ChernoffPlan(
        epsilon=epsilon,
        c=c,
        bound_kind=bound_kind,
        upper_bound=upper_bound,
        average=average,
        s=s,
    )


def plan_from_profile(
    g: Graph,
    profile: TriangleProfile,
    epsilon: float,
    c: float,
    bound_kind: str,
    upper_bound: float | None = None,
) -> ChernoffPlan:
    """Build a plan with the average (and optionally the bound) taken from the oracle."""
    _check_profile(g, profile)
    if bound_kind == VERTEX_BOUND:
        average = profile.total / g.n
        derived_upper = float(profile.max_per_vertex)
    elif bound_kind == EDGE_BOUND:
        if g.m == 0:
            raise ValueError("edge-bound plan needs at least one edge")
        average = profile.total / g.m
        derived_upper = float(profile.max_per_edge)
    else:
        raise ValueError(f"bound_kind must be {VERTEX_BOUND!r} or {EDGE_BOUND!r}")
    ub = derived_upper if upper_bound is None else float(upper_bound)
    return make_plan(epsilon, c, g.n, ub, average, bound_kind)

