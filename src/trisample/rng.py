"""Seedable randomness: named substreams and discrete draws.

Every randomized run in this package is driven by a single integer seed,
split into two independent substreams: one for first-stage vertex draws,
one for second-stage neighbor draws.  The in-memory estimator and the
edge-stream estimator consume the substreams in the same order, which is
what makes their results comparable bit for bit.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np


@dataclass
class SampleStreams:
    """The two named substreams derived from one seed."""

    vertices: np.random.Generator
    pairs: np.random.Generator


def seed_streams(seed: int) -> SampleStreams:
    """Split ``seed`` into the (vertices, pairs) generator pair."""
    vertex_ss, pair_ss = np.random.SeedSequence(seed).spawn(2)
    return SampleStreams(
        vertices=np.random.Generator(np.random.PCG64(vertex_ss)),
        pairs=np.random.Generator(np.random.PCG64(pair_ss)),
    )


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
