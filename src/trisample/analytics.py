"""Closed-form estimator variance and sample-size planning.

The variance of a single trial under first/second-stage probabilities
(p, q) is

    Var = (1/36) * sum_{i,j} T_{ij}^2 / (p_i q_{j|i})  -  T^2

summed over ordered pairs with T_{ij} > 0; the variance of the mean of
``s`` trials is that divided by s.  Each built-in strategy also has a
specialized closed form.  Both are exact sums of integer terms, the
generic sum's from p and q as ratios of integers, summed per denominator
with the trial engine's :func:`~trisample.estimator._sums_by_den` and
divided once, exactly: each single-trial variance is correctly rounded,
so the two forms are equal, and exactly 0.0 where the variance is 0.

Sample-size planning inverts the exponential tail bound
exp(-eps^2 s avg / (2 ub)) <= n^(-c) for the smallest integer s, where
``ub`` bounds every local count and ``avg`` is the mean local count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .estimator import _INT64_MAX, Moments, _sums_by_den, fold_trials
from .exact import TriangleProfile, _check_profile
from .graph import Graph
from .samplers import (
    EDGE_DEGREE,
    EDGE_UNIFORM,
    OPTIMAL,
    QOPT_DEGREE,
    QOPT_UNIFORM,
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


# Edges of the profile whose counted pairs variance_generic folds at a time, so that its
# temporaries are O(window), not O(counted edges).  Measured with tracemalloc on edge-degree:
# on the seed-41 powerlaw graph the sum peaks at 1.16 MiB against 3.21 MiB unwindowed, under
# the 5.30 MiB of `trisample exact`, for 4.6 against 4.3 ms; on Chung-Lu at m = 2e6 at 1.2
# against 58 MiB, for 0.17 against 0.12 s, as the (j, i) halves' key searches lose their
# order across windows.  Windows of 2**12 take 5.6 ms on powerlaw and 0.25 s at m = 2e6;
# windows of 2**15 peak at 2.08 MiB on powerlaw, which lifts `trisample variance` to 5.79.
_WINDOW = 1 << 14


def _counted_edges(
    profile: TriangleProfile, start: int = 0, stop: int | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(c, i, j)``: each T_ij > 0 of the edges ``start:stop`` and its edge, i < j; a mask
    and ``take`` beat fancy indexing ×4."""
    counts = profile.edge_counts[start:stop]
    live = np.flatnonzero(counts > 0)
    i, j = profile.edges[start:stop].take(live, axis=0).T
    return counts[live], i, j


def variance_generic(g: Graph, profile: TriangleProfile, kind: str, s: int = 1) -> float:
    """The generic variance sum over the strategy's own p and q, exactly.

    Each ordered pair with c = T_ij > 0 adds W c^2 y / (w_i x), for p_i = w_i / W and
    q_{j|i} = x / y (:meth:`~trisample.samplers.SamplerSpec._q_ratio`).  The terms, in
    Python ints where int64 could overflow and reduced by their gcd, are folded per
    denominator and divided once: the result equals :func:`variance_closed_form`'s.  The
    profile's edges are taken in windows of ``_WINDOW``, in order, and each window's pairs
    (i, j) with i < j are folded, then its (j, i).  The fold is exact, so the result does
    not depend on the window, and the temporaries are O(window) whatever m is.  A counted
    pair of zero draw probability raises a ValueError naming the first, edges in order,
    (i, j) before (j, i) in an edge.
    """
    if s < 1:
        raise ValueError("trial count must be at least 1")
    spec = build_sampler(g, kind, profile)
    moments = Moments(spec._p_total)
    for start in range(0, len(profile.edge_counts), _WINDOW):
        c, i, j = _counted_edges(profile, start, start + _WINDOW)
        firsts = []  # each half's first pair of zero probability
        for a, b in ((i, j), (j, i)):  # one half at a time: half the temporaries
            x, y = spec._q_ratio(a, b)
            w = 1 if spec._p_weights is None else spec._p_weights[a]
            c_max, y_max, x_max, w_max = (int(np.max(v, initial=0)) for v in (c, y, x, w))
            big = c_max * c_max * y_max > _INT64_MAX or w_max * x_max > _INT64_MAX
            cc, y, w, x = (np.asarray(v, dtype=object if big else np.int64) for v in (c, y, w, x))
            num, den = cc * cc, x  # in place from here: fresh pages cost as much as the ops
            num *= y
            den *= w  # x is _q_ratio's own new array
            firsts.append(int(np.append(den == 0, True).argmax()))  # the first zero, else len(c)
            if firsts[-1] < len(c):
                continue
            common = np.gcd(den, num)  # the smaller first: numpy's Euclid then takes a step less
            num //= common
            den //= common
            fold_trials(moments, 0, num, den.astype(np.int64, copy=False))
        if (k := min(firsts)) < len(c):  # earlier windows had none: the first in edge order
            pair = f"({i[k]},{j[k]})" if firsts[0] == k else f"({j[k]},{i[k]})"
            raise ValueError(
                f"support violation: pair {pair} has local count {c[k]} but zero draw probability"
            )
    acc, _, lcm = moments.exact()  # acc / lcm is the sum of the reduced terms
    return float(Fraction(moments.scale * acc, 36 * lcm) - profile.total**2) / s


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
    build_sampler(g, kind, profile)  # ValueError where the strategy is undefined
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
        c, i, j = _counted_edges(profile)
        dens, _, squares = _sums_by_den(c, g.degrees[i] + g.degrees[j])
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
    """A plan from the oracle's average and largest local count, or an ``upper_bound`` above it."""
    _check_profile(g, profile)
    if bound_kind == VERTEX_BOUND:
        average = profile.total / g.n
        name, largest = "max_per_vertex", profile.max_per_vertex
    elif bound_kind == EDGE_BOUND:
        if g.m == 0:
            raise ValueError("edge-bound plan needs at least one edge")
        average = profile.total / g.m
        name, largest = "max_per_edge", profile.max_per_edge
    else:
        raise ValueError(f"bound_kind must be {VERTEX_BOUND!r} or {EDGE_BOUND!r}")
    ub = float(largest if upper_bound is None else upper_bound)
    if ub < largest:
        raise ValueError(f"upper bound {upper_bound} is below the oracle's {name} {largest}")
    return make_plan(epsilon, c, g.n, ub, average, bound_kind)

