"""Seedable randomness: named substreams.

Every randomized run in this package is driven by a single integer seed,
split into two independent substreams: one for first-stage vertex draws,
one for second-stage neighbor draws.  The q-optimal kinds and the
edge-stream estimator draw no neighbours; the in-memory estimator and the
edge-stream estimator draw their vertices from the same substream in the
same order, which is what makes their results comparable bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

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
