"""Monte Carlo triangle estimation: average of importance-weighted trials.

A trial drawn as (i, j) with probabilities (p_i, q_{j|i}) is worth

    beta_t = T_{ij} / (6 p_i q_{j|i})

where T_{ij} is the number of triangles through {i, j}.  The estimate is
the mean of ``s`` independent trials; it is unbiased for the triangle
count under every built-in strategy.

:func:`run_trials` draws, values and folds trials in chunks of array
operations.  It consumes the seed's substreams exactly as a loop of
single draws does and folds the values in trial order, so its result
equals, bit for bit, that of the one-trial loop kept as the reference in
``tests/trial_reference.py``.  :func:`fold_trials` is the one valuation:
the in-memory trials and the stream finalize both go through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exact import TriangleProfile, count_exact
from .graph import Graph
from .rng import seed_streams
from .samplers import OPTIMAL, SamplerSpec, build_sampler, draw_vertices, second_stage

_CHUNK = 4096  # trials drawn and folded at once; bounds the per-chunk arrays


class Moments:
    """Streaming first/second moments of trial values.

    The first moment uses Kahan-compensated summation so that long runs
    (s > 1e5) do not drift; memory stays O(1) regardless of trial count.
    Values are added one at a time in order, so the sums do not depend
    on how a run is split into batches.
    """

    __slots__ = ("count", "sum_sq", "_sum", "_comp")

    def __init__(self) -> None:
        self.count = 0
        self.sum_sq = 0.0
        self._sum = 0.0
        self._comp = 0.0

    def fold(self, values: list[float]) -> None:
        """Add ``values`` in order."""
        total, comp, sum_sq = self._sum, self._comp, self.sum_sq
        for x in values:
            y = x - comp
            t = total + y
            comp = (t - total) - y
            total = t
            sum_sq += x * x
        self._sum, self._comp, self.sum_sq = total, comp, sum_sq
        self.count += len(values)

    @property
    def total(self) -> float:
        return self._sum

    def empirical_variance(self) -> float:
        """Unbiased sample variance of the trials, divided by the trial count."""
        s = self.count
        if s < 2:
            return 0.0
        spread = self.sum_sq - self._sum * (self._sum / s)
        return max(spread, 0.0) / (s - 1) / s


def fold_trials(moments: Moments, live: np.ndarray, local: np.ndarray, p, q) -> np.ndarray:
    """Value a batch of trials and fold them into ``moments`` in order.

    ``local``, ``p`` and ``q`` belong to the live trials: each is worth
    T_ij / (6 p q); the other trials are degenerate and worth 0.
    Returns the values of the whole batch.
    """
    values = np.zeros(len(live))
    values[live] = local / (6.0 * p * q)
    moments.fold(values.tolist())
    return values


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
    """Package accumulated moments; shared by in-memory and stream paths."""
    s = moments.count
    if s == 0:
        raise ValueError("no trials to estimate from")
    return Estimate(
        value=moments.total / s,
        trials=s,
        sum_beta=moments.total,
        sum_beta_sq=moments.sum_sq,
        empirical_variance=moments.empirical_variance(),
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
    the per-trial values for diagnostics (O(s) memory instead of O(1)).
    """
    if s < 1:
        raise ValueError("trial count must be at least 1")
    if kind == OPTIMAL and oracle is None:
        oracle = count_exact(g)
    spec = build_sampler(g, kind, oracle)
    return run_trials(spec, s, seed, keep_trials=keep_trials)


def run_trials(spec: SamplerSpec, s: int, seed: int, keep_trials: bool = False) -> Estimate:
    """Trials of a prebuilt sampler, in chunks; bit-reproducible from the seed."""
    streams = seed_streams(seed)
    pairs = second_stage(spec)
    moments = Moments()
    degenerate = 0
    retained = np.empty(s, dtype=np.float64) if keep_trials else None
    for start in range(0, s, _CHUNK):
        vertices = draw_vertices(spec, streams.vertices, min(_CHUNK, s - start))
        live, _, local, q = pairs(vertices, streams.pairs)
        values = fold_trials(moments, live, local, spec.p_of(vertices[live]), q)
        degenerate += len(vertices) - len(local)
        if retained is not None:
            retained[start : start + len(values)] = values
    return finalize_estimate(moments, spec.kind, seed, degenerate, retained)
