"""Monte Carlo triangle estimation: average of importance-weighted trials.

A trial drawn as (i, j) with probabilities (p_i, q_{j|i}) is worth

    beta_t = T_{ij} / (6 p_i q_{j|i})

where T_{ij} is the number of triangles through {i, j}.  The estimate is
the mean of ``s`` independent trials; it is unbiased for the triangle
count under every built-in strategy.

Every p_i is w_i / W, an integer first-stage weight over its total W
(1 over n, deg(i) over 2m, T_i over 3T), and every q_{j|i} is a ratio of
integers too.  So each trial is worth (W / 6) * num / den for integers
num and den, which :func:`~trisample.samplers.second_stage` gives
reduced by their common factor:

    optimal       num = 2                den = 1       (2 T_i / T_i)
    qopt-uniform  num = 2 T_i            den = 1
    qopt-degree   num = 2 T_i            den = deg(i)
    edge-uniform  num = T_ij deg(i)      den = 1
    edge-degree   num = T_ij             den = 1       (T_ij deg(i) / deg(i))

:func:`fold_trials` sums num and num^2 per denominator in integers with
:func:`_sums_by_den`, which the closed-form variances also sum through,
and :class:`Moments` keeps the sums exactly, so they do not depend on the
order or the chunking of the trials; :func:`finalize_estimate` rounds
every reported float once from the exact rational.

:func:`run_trials` draws and values trials in chunks of array
operations.  It draws the first stage, and the edge kinds' j, from the
seed's substreams exactly as a loop of single draws does; the q-optimal
kinds' values do not depend on j, which it leaves undrawn: they read
T_i, which the qopt kinds count once per run for each distinct
first-stage vertex (:func:`~trisample.exact.local_triangles`).  So its
result is the exact sum of the one-trial loop kept as the reference in
``tests/trial_reference.py``, rounded once.  The in-memory trials and the stream
finalize both fold through :func:`fold_trials`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exact import TriangleProfile, count_exact
from .graph import Graph
from .rng import seed_streams
from .samplers import OPTIMAL, SamplerSpec, build_sampler, draw_vertices, second_stage

_CHUNK = 4096  # trials drawn and folded at once; bounds the per-chunk arrays
_INT64_MAX = np.iinfo(np.int64).max


class Moments:
    """Exact first and second moments of trial values (W / 6) * num / den.

    ``sums[den]`` holds the sums of num and of num^2 over the folded
    trials with denominator ``den``, as Python ints, and ``count`` the
    trials folded, zero-valued ones included.  Memory is one entry per
    distinct denominator, whatever the trial count.
    """

    __slots__ = ("scale", "count", "sums")

    def __init__(self, scale: int) -> None:
        self.scale = scale  # W, the first-stage weight total
        self.count = 0
        self.sums: dict[int, list[int]] = {}

    def exact(self) -> tuple[int, int, int]:
        """``(a, b, d)``: the values sum to (W / 6) * a / d and their squares
        to (W / 6)^2 * b / d^2, with d the least common denominator."""
        d = math.lcm(*self.sums)
        a = b = 0
        for den, (s1, s2) in self.sums.items():
            f = d // den
            a += s1 * f
            b += s2 * f * f
        return a, b, d


def _sums_by_den(num: np.ndarray, den: np.ndarray | int = 1) -> tuple[list, list, list]:
    """``(dens, sums, squares)``: the distinct denominators, ascending, and
    for each the sum of the nonnegative ints ``num`` over it and of their
    squares, as Python ints.  ``den`` has an int per num, or is one int.
    They are summed in int64, in one ``np.add.at`` slot per possible
    denominator, or in Python ints where the squares could overflow."""
    if not len(num):
        return [], [], []
    big = int(num.max()) > math.isqrt(_INT64_MAX // len(num))  # loose: the float sum decides
    big = big and (approx := num.astype(np.float64)) @ approx > _INT64_MAX / 2
    num = num.astype(object if big else np.int64, copy=False)
    if np.ndim(den) == 0:
        return [int(den)], [int(num.sum())], [int((num * num).sum())]
    size = int(den.max()) + 1
    s1, s2 = np.zeros(size, dtype=num.dtype), np.zeros(size, dtype=num.dtype)
    np.add.at(s1, den, num)
    np.add.at(s2, den, num * num)
    dens = np.flatnonzero(np.bincount(den, minlength=size))
    return dens.tolist(), s1[dens].tolist(), s2[dens].tolist()


def fold_trials(moments: Moments, trials: int, num: np.ndarray, den: np.ndarray | int = 1) -> None:
    """Fold a batch of ``trials`` trials into ``moments``.

    ``num`` and ``den`` belong to the batch's live trials, each worth
    (W / 6) * num / den; the other trials are worth 0.  ``den`` is an
    array, or one int that every live trial shares.  Each denominator's
    num and num^2 are summed exactly by :func:`_sums_by_den` and added
    to its entry of ``moments.sums``.
    """
    moments.count += trials
    sums = moments.sums
    for d, a, b in zip(*_sums_by_den(num, den)):
        acc = sums.setdefault(d, [0, 0])
        acc[0] += a
        acc[1] += b


@dataclass(frozen=True)
class Estimate:
    """Result of an estimation run, reproducible from (kind, trials, seed)."""

    value: float
    trials: int
    sum_beta: float
    sum_beta_sq: float
    empirical_variance: float
    kind: str
    seed: int
    degenerate_trials: int  # trials whose first-stage vertex admits no second stage
    trial_values: np.ndarray | None = field(default=None, compare=False, repr=False)


def finalize_estimate(
    moments: Moments,
    kind: str,
    seed: int,
    degenerate_trials: int,
    trial_values: np.ndarray | None = None,
) -> Estimate:
    """Package accumulated moments; shared by in-memory and stream paths.

    ``sum_beta``, ``sum_beta_sq`` and ``empirical_variance`` (the unbiased
    sample variance of the trials over the trial count) are each rounded
    once from their exact rational; ``value`` is ``sum_beta / trials``.
    """
    s = moments.count
    if s == 0:
        raise ValueError("no trials to estimate from")
    a, b, d = moments.exact()
    w = moments.scale
    sum_beta = w * a / (6 * d)  # int / int: correctly rounded
    spread = w * w * (s * b - a * a)  # 36 d^2 s times the squared deviations summed
    return Estimate(
        value=sum_beta / s,
        trials=s,
        sum_beta=sum_beta,
        sum_beta_sq=w * w * b / (36 * d * d),
        empirical_variance=spread / (36 * d * d * s * s * (s - 1)) if s > 1 else 0.0,
        kind=kind,
        seed=seed,
        degenerate_trials=degenerate_trials,
        trial_values=trial_values,
    )


def estimate(
    g: Graph,
    kind: str,
    s: int,
    seed: int = 0,
    oracle: TriangleProfile | None = None,
    keep_trials: bool = False,
) -> Estimate:
    """Run ``s`` independent trials of the given strategy and average them.

    Deterministic given (graph, kind, s, seed).  The "optimal" strategy
    needs the exact profile and computes it when not supplied -- by
    design it costs as much as exact counting.  ``keep_trials`` retains
    the per-trial values for diagnostics, at O(s) memory.
    """
    if s < 1:
        raise ValueError("trial count must be at least 1")
    if kind == OPTIMAL and oracle is None:
        oracle = count_exact(g)
    spec = build_sampler(g, kind, oracle)
    return run_trials(spec, s, seed, keep_trials=keep_trials)


def run_trials(spec: SamplerSpec, s: int, seed: int, keep_trials: bool = False) -> Estimate:
    """Trials of a prebuilt sampler, in chunks; bit-reproducible from the seed.

    ``keep_trials`` retains each trial's value, (W * num) / (6 * den) in
    floats: correctly rounded while W * num stays below 2^53.
    """
    streams = seed_streams(seed)
    terms = second_stage(spec)
    moments = Moments(spec._p_total)
    degenerate = 0
    retained = np.zeros(s) if keep_trials else None
    for start in range(0, s, _CHUNK):
        vertices = draw_vertices(spec, streams.vertices, min(_CHUNK, s - start))
        live, num, den = terms(vertices, streams.pairs)
        fold_trials(moments, len(vertices), num, den)
        degenerate += len(vertices) - len(num)
        if retained is not None:
            retained[start : start + len(vertices)][live] = num * float(spec._p_total) / (6.0 * den)
    return finalize_estimate(moments, spec.kind, seed, degenerate, retained)
