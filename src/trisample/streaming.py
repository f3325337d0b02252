"""Two-pass triangle estimation over an edge stream.

Uniform first-stage sampling with variance-minimizing second stage,
reorganized for sequential edge access:

  * pass 0 (only when neither the caller nor the source, by a ``# n=``
    header, gives the vertex count): find n.  A count from both must
    agree.
  * pass 1: set bit r of vertex v's row when v neighbours the r-th
    smallest distinct sampled vertex.
  * pass 2: for every stream edge {j, d}, each bit r set in both rows j
    and d is a triangle at that vertex; its tally advances by one.

After the passes every sampled vertex knows its local triangle count
T_i, which each of its slots copies.  Under the q-optimal second stage
a trial is worth (n / 6) * 2 T_i whatever partner j it would draw, so
the finalize draws none and sums the trials exactly with the in-memory
engine's :func:`~trisample.estimator.fold_trials`.  State is n bit rows
of ceil(d/8) bytes, for the d <= min(s, n) distinct sampled vertices,
and one int64 tally per sample: n * ceil(d/8) + 8 s bytes, known before
pass 1.

Every pass reads the ``(k, 2)`` int64 arrays of
:meth:`~trisample.graph.EdgeStreamSource.arrays`, cuts them into blocks
of at most ``_STREAM_BLOCK`` edges (in ``_edge_blocks``, the one place
that cuts), and does its work on a block with array operations, so the
temporaries add O(d * _STREAM_BLOCK) to the state; pass 1 also holds an
n-byte mask of the sampled vertices.
Errors still name the first bad edge in stream order, as an
edge-by-edge pass would; pass 0 already refuses a self-loop or a
negative id.  Pass 1 records how many edges it read, and
pass 2 refuses a stream that has changed length.
Pass 2 also refuses a repeated edge that closes a triangle, which pass 1
only sees under ``strict`` but which would be counted twice.

Sampled vertices are drawn with replacement.  A vertex drawn more than
once has one column of bits and one count, which each of its trials
reads, as the in-memory engine counts T_v once per distinct vertex.
Given the same seed, the final estimate equals the in-memory
"qopt-uniform" estimate bit for bit: both are the same exact integer
sums, rounded once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .estimator import Estimate, Moments, finalize_estimate, fold_trials
from .exact import _id_array
from .graph import EdgeStreamSource
from .rng import seed_streams
from .samplers import QOPT_UNIFORM

PHASE_PASS1 = "pass1"
PHASE_PASS2 = "pass2"
PHASE_DONE = "done"

# Edges read and processed at once by each pass.  A block's temporaries
# grow with d * block.  Five stream runs at s=64 over a 5*10^4-edge file
# raised the peak memory of a fresh process by 2.9 MB with 4096-edge
# blocks (1.5 MB edge by edge) and by 7.0 MB with 16384-edge blocks,
# which were no faster.
_STREAM_BLOCK = 4096


class StreamFormatError(ValueError):
    """The edge stream violates the simple-graph stream contract."""


@dataclass(eq=False)
class StreamState:
    """Neighbour bits and tallies of the sampled vertices, accumulated
    over the passes.

    Column r of the bits stands for the r-th smallest distinct sampled
    vertex: bit ``r & 7`` of ``neighbor_bits[v, r >> 3]`` is set when v
    neighbours it.  ``vertex_count[t]`` is the local triangle tally of
    ``sampled[t]``, the same for every slot of a vertex.  ``m`` is the
    number of stream edges pass 1 read.
    """

    sampled: list[int]
    n: int
    neighbor_bits: np.ndarray = field(repr=False)  # (n, ceil(d/8)) uint8, d distinct sampled
    vertex_count: np.ndarray = field(repr=False)  # (s,) int64
    pass_phase: str = PHASE_PASS1
    m: int = 0  # pass 2 must read as many edges

    @property
    def state_bytes(self) -> int:
        """Bytes held by the pass state: n * ceil(d/8) + 8 s, for d distinct
        sampled vertices."""
        return self.neighbor_bits.nbytes + self.vertex_count.nbytes


@dataclass(frozen=True)
class StreamRun:
    """Outcome of a full streaming run."""

    estimate: Estimate
    state: StreamState
    passes_used: int


def _edge_blocks(source: EdgeStreamSource, n: int | None = None) -> Iterator[np.ndarray]:
    """One full pass over ``source`` as ``(k, 2)`` int64 blocks of 1 to
    ``_STREAM_BLOCK`` edges, in stream order: views that cut each of the
    source's arrays, so that no block spans two of them.

    The source is read to its end, so the pass counts in
    ``source.passes``.  Every edge is checked for a self-loop and a
    negative id, and with ``n`` also against the universe ``[0, n)``.
    The edges before the first bad one come as a block of their own, and
    the next step raises on the bad edge through ``_check_endpoints``.  A
    pass that acts on each block before asking for the next one thus
    reports its errors in stream order.
    """
    for edges in source.arrays():
        for lo in range(0, len(edges), _STREAM_BLOCK):
            block = edges[lo : lo + _STREAM_BLOCK]
            u, v = block[:, 0], block[:, 1]
            bad = (u == v) | (np.minimum(u, v) < 0)
            if n is not None:
                bad |= np.maximum(u, v) >= n
            if bad.any():
                k = int(bad.argmax())
                if k:
                    yield block[:k]
                _check_endpoints(*block[k].tolist(), n)  # raises: the edge is bad
            yield block


def pass_count_n(source: EdgeStreamSource) -> int:
    """Extra pass for when the vertex count is unknown: max endpoint + 1.

    Raises on an empty stream, and, as pass 1 would, on the first
    self-loop or negative id.
    """
    max_id = -1
    for block in _edge_blocks(source):
        max_id = max(max_id, int(block.max()))
    if max_id < 0:
        raise StreamFormatError("empty stream: cannot determine vertex count")
    return max_id + 1


def _check_endpoints(u: int, v: int, n: int | None) -> None:
    """Raise on a self-loop, a negative id or, with ``n``, an id of ``n`` or more."""
    if u == v:
        raise StreamFormatError(f"self-loop ({u},{u}) in edge stream")
    if u < 0 or v < 0:
        raise StreamFormatError(f"edge ({u},{v}) has a negative vertex id")
    if n is not None and (u >= n or v >= n):
        raise StreamFormatError(f"edge ({u},{v}) outside vertex universe [0,{n})")


def _add_new_edges(seen: set[int], u: np.ndarray, v: np.ndarray, n: int) -> None:
    """Add the keys ``min * n + max`` of the edges (u_t, v_t), Python ints, to ``seen``
    at once; on a repeat, a loop in edge order raises on the first, as a per-edge check would."""
    keys = (np.minimum(u, v).astype(object) * n + np.maximum(u, v)).tolist()
    new = set(keys)
    if len(new) < len(keys) or not seen.isdisjoint(new):
        for key in keys:
            if key in seen:
                raise StreamFormatError("duplicate edge {%d,%d} in stream" % divmod(key, n))
            seen.add(key)
    seen |= new


def pass1_neighborhoods(
    source: EdgeStreamSource, sampled: list[int], n: int, strict: bool = False
) -> StreamState:
    """First pass: set the neighbour bit rows of the sampled vertices.

    A bit that is already set means the same undirected edge appeared
    twice, which the counting pass would double-count; this catches
    duplicates touching a sampled vertex.  ``strict`` keeps every edge's key
    in a set and catches all duplicates, at O(m) memory and about twice the time.

    Each block of edges is handled with array operations: its
    incidences at sampled vertices are listed in stream order (edge,
    then the direction u->v before v->u), checked for bits already set
    or repeated within the block, and set at once.  The first error
    raised is the one an edge-by-edge pass would raise.  An incidence at
    a sampled vertex tests and sets one bit in its neighbour's row, that
    of the vertex's column, however many times the vertex was drawn.
    """
    drawn = _id_array(sampled, n)  # ValueError unless the ids are integers
    if (drawn < 0).any():
        raise ValueError(f"sampled vertex {sampled[int(drawn.argmin())]} outside universe [0,{n})")
    ids = np.unique(drawn)
    state = StreamState(
        sampled=drawn.tolist(),
        n=n,
        neighbor_bits=np.zeros((n, (len(ids) + 7) // 8), dtype=np.uint8),
        vertex_count=np.zeros(len(sampled), dtype=np.int64),
    )
    bits = state.neighbor_bits
    is_sampled = np.zeros(n, dtype=bool)
    is_sampled[ids] = True
    seen: set[int] | None = set() if strict else None
    for block in _edge_blocks(source, n):
        state.m += len(block)
        if seen is not None:
            # A duplicate at a sampled vertex repeats an earlier edge, so
            # this check meets it first.
            _add_new_edges(seen, block[:, 0], block[:, 1], n)
        # incidence k of the block: vertex ends[k] sees neighbour others[k]
        ends, others = block.ravel(), block[:, ::-1].ravel()
        at = np.flatnonzero(is_sampled[ends])
        r, other = ids.searchsorted(ends[at]), others[at]  # r: the end's column of bits
        byte, mask = r >> 3, (1 << (r & 7)).astype(np.uint8)
        dup = np.ones(len(r), dtype=bool)  # set by an earlier incidence of the block...
        dup[np.unique(r * n + other, return_index=True)[1]] = False
        dup |= (bits[other, byte] & mask) != 0  # ...or by an earlier block
        if dup.any():
            k = at[int(dup.argmax())]
            u, v = block[k >> 1].tolist()
            raise StreamFormatError(
                f"duplicate edge {{{u},{v}}} detected at sampled vertex {int(ends[k])}"
            )
        np.bitwise_or.at(bits, (other, byte), mask)
    return state


def pass2_local_counts(source: EdgeStreamSource, state: StreamState) -> StreamState:
    """Second pass: count triangles through each sampled vertex.

    For a stream edge {j, d}, the set bits of ``neighbor_bits[j] &
    neighbor_bits[d]`` are the columns of the sampled vertices that close
    a triangle.  A sampled vertex's own bit is never set (no self-loops),
    so an edge incident to it never fires.  A block's edges with both
    endpoints near some sampled vertex are ANDed at once; the rows that
    hit are unpacked 512 columns (64 bytes of each row) at a time, and
    each slice's column sums are added into one tally per column: per
    distinct sampled vertex, and per padding bit past the d-th, which is
    never set.  Each slot of a sampled vertex copies its tally into
    ``vertex_count`` at the end of the pass.  A pass that reads a
    different number of edges than pass 1 means the stream changed in
    between, and raises, leaving ``vertex_count`` as it was.

    An edge that closes a triangle must not come twice, or its triangles
    would be counted twice; pass 1 sees such a repeat only under
    ``strict``, since the edge does not touch a sampled vertex.  The
    canonical keys of the closing edges, which are few, are kept by
    :func:`_add_new_edges`, and the first repeat in stream order raises.
    """
    if state.pass_phase != PHASE_PASS1:
        raise RuntimeError(f"pass 2 requires completed pass 1, state is {state.pass_phase!r}")
    bits = state.neighbor_bits
    _, inverse = np.unique(np.array(state.sampled, dtype=np.int64), return_inverse=True)
    tally = np.zeros(8 * bits.shape[1], dtype=np.int64)  # column r's, slot t reads column inverse[t]
    m = 0
    near = bits.any(axis=1)  # the neighbours of any sampled vertex
    closing: set[int] = set()  # canonical keys of the edges that hit
    for block in _edge_blocks(source, state.n):
        m += len(block)
        j, d = block[:, 0], block[:, 1]
        both = near[j] & near[d]
        j, d = j[both], d[both]
        hit = bits[j] & bits[d]
        at = hit.any(axis=1)
        j, d, hit = j[at], d[at], hit[at]
        _add_new_edges(closing, j, d, state.n)
        for c in range(0, len(tally), 512):  # 512 columns, 64 bytes of each row, at a time
            cols = np.unpackbits(hit[:, c // 8 : c // 8 + 64], axis=1, bitorder="little")
            tally[c : c + 512] += cols.sum(axis=0, dtype=np.int64)
    if m != state.m:
        raise StreamFormatError(
            f"stream changed between passes: pass 1 read {state.m} edges, pass 2 read {m}"
        )
    state.vertex_count[:] = tally[inverse]
    state.pass_phase = PHASE_PASS2
    return state


def finalize_stream_estimate(state: StreamState, *, seed: int = 0) -> Estimate:
    """Turn the accumulated tallies into the final estimate.

    Each sampled vertex is one trial, folded as the in-memory
    qopt-uniform engine folds it: worth (n / 6) * 2 T_i, twice its tally.
    Vertices with no local triangles are degenerate zero trials.
    """
    if state.pass_phase != PHASE_PASS2:
        raise RuntimeError(f"finalize requires completed pass 2, state is {state.pass_phase!r}")
    tally = state.vertex_count
    num = 2 * tally[tally > 0]
    moments = Moments(state.n)
    fold_trials(moments, len(tally), num)
    state.pass_phase = PHASE_DONE
    return finalize_estimate(moments, QOPT_UNIFORM, seed, len(tally) - len(num))


def stream_estimate(
    source: EdgeStreamSource,
    s: int,
    seed: int = 0,
    n: int | None = None,
    strict: bool = False,
) -> StreamRun:
    """Full pipeline: (optional counting pass,) pass 1, pass 2, finalize.

    With ``n`` supplied or declared by the source the run takes exactly
    2 passes, otherwise 3.  An ``n`` that differs from the source's
    ``declared_n`` is refused.
    """
    if s < 1:
        raise ValueError("trial count must be at least 1")
    passes_before = source.passes
    if n is None:
        n = source.declared_n
    elif source.declared_n not in (None, n):
        raise StreamFormatError(f"n={n} contradicts the n={source.declared_n} the source declares")
    if n is None:
        n = pass_count_n(source)
    elif n < 1:
        raise ValueError("vertex count must be positive")
    sampled = seed_streams(seed).vertices.integers(n, size=s).tolist()
    state = pass1_neighborhoods(source, sampled, n, strict=strict)
    pass2_local_counts(source, state)
    est = finalize_stream_estimate(state, seed=seed)
    return StreamRun(estimate=est, state=state, passes_used=source.passes - passes_before)
