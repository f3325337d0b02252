"""Two-pass triangle estimation over an edge stream.

Uniform first-stage sampling with variance-minimizing second stage,
reorganized for sequential edge access:

  * pass 0 (only when the vertex count is unknown): find n.
  * pass 1: for each sampled vertex, mark its neighbors in a bit vector.
  * pass 2: for every stream edge {j, d} with both endpoints marked for a
    sampled vertex i, a triangle {i, j, d} is found; the per-edge
    counters for j and d and the per-vertex tally all advance by one.

After the passes every sampled vertex knows its exact local triangle
structure, so trials finalize in O(1) each.  State is one bit vector and
one counter vector of length n per sampled vertex: O(s*n) overall.

Sampled vertices are drawn with replacement; duplicates keep independent
counters, matching the i.i.d. trial model of the in-memory estimator.
Given the same seed, the final estimate equals the in-memory
"qopt-uniform" estimate bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .estimator import Estimate, Moments, beta_value, finalize_estimate
from .graph import EdgeStreamSource
from .rng import seed_streams, weighted_choice
from .samplers import QOPT_UNIFORM, TrialDraw

PHASE_PASS1 = "pass1"
PHASE_PASS2 = "pass2"
PHASE_DONE = "done"


class StreamFormatError(ValueError):
    """The edge stream violates the simple-graph stream contract."""


@dataclass(eq=False)
class StreamState:
    """Per-sampled-vertex counters accumulated over the passes.

    Row ``t`` belongs to the t-th sampled vertex: ``neighbor_bits[t]`` is
    its bit-packed neighborhood vector, ``edge_counts[t, j]`` the number
    of triangles found through edge {sampled[t], j}, and
    ``vertex_count[t]`` its local triangle tally.
    """

    sampled: list[int]
    n: int
    neighbor_bits: np.ndarray = field(repr=False)  # (s, ceil(n/8)) uint8
    edge_counts: np.ndarray = field(repr=False)  # (s, n) narrowest uint >= n
    vertex_count: np.ndarray = field(repr=False)  # (s,) int64
    pass_phase: str = PHASE_PASS1
    final_draws: list[TrialDraw] = field(default_factory=list, repr=False)

    @property
    def state_bytes(self) -> int:
        """Bytes held by the pass counters; the O(s*n) figure under test."""
        return self.neighbor_bits.nbytes + self.edge_counts.nbytes + self.vertex_count.nbytes


@dataclass(frozen=True)
class StreamRun:
    """Outcome of a full streaming run."""

    estimate: Estimate
    state: StreamState
    passes_used: int


def pass_count_n(source: EdgeStreamSource) -> int:
    """Extra pass for when the vertex count is unknown: max endpoint + 1."""
    max_id = -1
    for u, v in source:
        if u > max_id:
            max_id = u
        if v > max_id:
            max_id = v
    if max_id < 0:
        raise StreamFormatError("empty stream: cannot determine vertex count")
    return max_id + 1


def _check_endpoints(u: int, v: int, n: int) -> None:
    if u == v:
        raise StreamFormatError(f"self-loop ({u},{u}) in edge stream")
    if u >= n or v >= n or u < 0 or v < 0:
        raise StreamFormatError(f"edge ({u},{v}) outside vertex universe [0,{n})")


def pass1_neighborhoods(
    source: EdgeStreamSource, sampled: list[int], n: int, strict: bool = False
) -> StreamState:
    """First pass: set the neighborhood bit vectors of the sampled vertices.

    A bit that is already set means the same undirected edge appeared
    twice, which the counting pass would double-count; this catches
    duplicates touching a sampled vertex.  ``strict`` hashes every edge
    and catches all duplicates at O(m) extra memory.
    """
    sampled = [int(i) for i in sampled]
    for i in sampled:
        if not 0 <= i < n:
            raise ValueError(f"sampled vertex {i} outside universe [0,{n})")
    s = len(sampled)
    state = StreamState(
        sampled=sampled,
        n=n,
        neighbor_bits=np.zeros((s, (n + 7) // 8), dtype=np.uint8),
        edge_counts=np.zeros((s, n), dtype=np.min_scalar_type(n)),
        vertex_count=np.zeros(s, dtype=np.int64),
    )
    slots_of: dict[int, list[int]] = {}
    for t, i in enumerate(sampled):
        slots_of.setdefault(i, []).append(t)
    bits = state.neighbor_bits
    seen: set[tuple[int, int]] | None = set() if strict else None
    for u, v in source:
        _check_endpoints(u, v, n)
        if seen is not None:
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise StreamFormatError(f"duplicate edge {{{key[0]},{key[1]}}} in stream")
            seen.add(key)
        for i, other in ((u, v), (v, u)):
            for t in slots_of.get(i, ()):
                byte, mask = other >> 3, 1 << (other & 7)
                if bits[t, byte] & mask:
                    raise StreamFormatError(
                        f"duplicate edge {{{u},{v}}} detected at sampled vertex {i}"
                    )
                bits[t, byte] |= mask
    return state


def pass2_local_counts(source: EdgeStreamSource, state: StreamState) -> StreamState:
    """Second pass: count triangles through each sampled vertex.

    For a stream edge {j, d}, every sampled vertex adjacent to both
    endpoints closes a triangle.  An edge incident to the sampled vertex
    itself never fires because its own bit is never set (no self-loops).
    """
    if state.pass_phase != PHASE_PASS1:
        raise RuntimeError(f"pass 2 requires completed pass 1, state is {state.pass_phase!r}")
    bits, counts, tally = state.neighbor_bits, state.edge_counts, state.vertex_count
    n = state.n
    for j, d in source:
        _check_endpoints(j, d, n)
        hit = (bits[:, j >> 3] & (1 << (j & 7))) != 0
        hit &= (bits[:, d >> 3] & (1 << (d & 7))) != 0
        if hit.any():
            counts[hit, j] += 1
            counts[hit, d] += 1
            tally[hit] += 1
    state.pass_phase = PHASE_PASS2
    return state


def finalize_stream_estimate(
    state: StreamState, rng: np.random.Generator, seed: int = 0
) -> Estimate:
    """Turn the accumulated counters into the final estimate.

    Each sampled vertex is one trial: a partner j is drawn proportionally
    to the per-edge counters (recorded but not affecting the value) and
    the trial is worth the uniform-first-stage value n * tally / 3.
    Vertices with no local triangles are degenerate zero trials.
    """
    if state.pass_phase != PHASE_PASS2:
        raise RuntimeError(f"finalize requires completed pass 2, state is {state.pass_phase!r}")
    n = state.n
    p_i = 1.0 / n
    values = []
    state.final_draws.clear()
    for t, i in enumerate(state.sampled):
        z = int(state.vertex_count[t])
        if z == 0:
            d = TrialDraw(i=i, j=None, p_i=p_i, q_j_given_i=0.0, degenerate=True)
            b = 0.0
        else:
            row = state.edge_counts[t]
            support = np.nonzero(row)[0]
            j, w, total = weighted_choice(support, row[support], rng)
            d = TrialDraw(i=i, j=int(j), p_i=p_i, q_j_given_i=w / total)
            b = beta_value(w, d.p_i, d.q_j_given_i)
        state.final_draws.append(d)
        values.append(b)
    moments = Moments()
    moments.fold(values)
    state.pass_phase = PHASE_DONE
    degenerate = int(np.count_nonzero(state.vertex_count == 0))
    return finalize_estimate(moments, QOPT_UNIFORM, seed, degenerate)


def stream_estimate(
    source: EdgeStreamSource,
    s: int,
    seed: int = 0,
    n: int | None = None,
    strict: bool = False,
) -> StreamRun:
    """Full pipeline: (optional counting pass,) pass 1, pass 2, finalize.

    With ``n`` supplied (or declared by the source) the run takes exactly
    2 passes, otherwise 3.
    """
    if s < 1:
        raise ValueError("trial count must be at least 1")
    passes_before = source.passes
    if n is None:
        n = source.declared_n
    if n is None:
        n = pass_count_n(source)
    elif n < 1:
        raise ValueError("vertex count must be positive")
    streams = seed_streams(seed)
    sampled = streams.vertices.integers(n, size=s).tolist()
    state = pass1_neighborhoods(source, sampled, n, strict=strict)
    pass2_local_counts(source, state)
    est = finalize_stream_estimate(state, streams.pairs, seed)
    return StreamRun(estimate=est, state=state, passes_used=source.passes - passes_before)
