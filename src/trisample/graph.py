"""Simple undirected graphs in compressed adjacency form, plus edge streams.

The graph is immutable after construction: vertex ids are dense
``0..n-1``, adjacency is stored CSR-style (``indptr``/``indices``) with
each neighbor run sorted strictly ascending.  These two arrays are the
graph's only representation; every reader, from the samplers to the
exact oracle and the edge-list writer, goes through them.  Ids present
nowhere in the edge list but below the maximum id (or below an explicit
header count) are isolated vertices.  ``n`` is capped so that the edge
keys ``i * n + j`` fit an int64.

Edges leave every reader as ``(k, 2)`` int64 arrays: an edge stream
yields a pass as blocks, and :meth:`Graph.edge_array` gives all edges.
"""

from __future__ import annotations

import logging
import os
import re
from contextlib import closing
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, islice
from math import isqrt
from typing import Iterable, Iterator

import numpy as np

log = logging.getLogger(__name__)

_HEADER_RE = re.compile(r"^[#%]\s*n\s*=\s*(\d+)\s*$", re.ASCII)
_MAX_ID = 2**63 - 1  # ids index int64 arrays
_MAX_N = isqrt(_MAX_ID + 1)  # the edge keys i * n + j < n * n fit an int64


class ParseError(ValueError):
    """Malformed edge-list input."""


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable simple undirected graph.

    ``indptr`` has length ``n + 1``; ``indices[indptr[i]:indptr[i+1]]``
    is the sorted neighbor run of vertex ``i``.  Safe to share across
    concurrent readers.
    """

    n: int
    m: int
    indptr: np.ndarray = field(repr=False)
    indices: np.ndarray = field(repr=False)

    @classmethod
    def from_edges(cls, edges: Iterable[tuple[int, int]], n: int | None = None) -> "Graph":
        """Build a graph from unique undirected edges.

        ``edges`` may be any iterable of id pairs or an ``(m, 2)`` integer
        array.  Rejects self-loops, duplicate undirected edges and more
        than ``3037000499`` vertices; use :func:`load_edge_list` for
        tolerant ingestion of raw files.
        """
        und = _edge_pairs(edges)
        bad = (und[:, 0] == und[:, 1]) | (und < 0).any(axis=1)
        if bad.any():
            u, v = und[bad.argmax()].tolist()
            if u == v:
                raise ValueError(f"self-loop ({u},{u}) not allowed")
            raise ValueError("vertex ids must be nonnegative")
        m = len(und)
        max_id = int(und.max()) if m else -1
        if n is None:
            n = max_id + 1
        if n > _MAX_N:
            raise ValueError(f"n={n} vertices exceed the limit of {_MAX_N} (edge keys would overflow int64)")
        both, repeated = _sort_rows(np.concatenate([und, und[:, ::-1]]))
        if repeated.any():
            raise ValueError("duplicate undirected edges not allowed")
        if max_id >= n:
            raise ValueError(f"vertex id {max_id} out of declared range n={n}")
        indices = np.ascontiguousarray(both[:, 1])
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(both[:, 0], minlength=n), out=indptr[1:])
        return cls(n=n, m=m, indptr=indptr, indices=indices)

    @cached_property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def degree(self, i: int) -> int:
        self._check_id(i)
        return int(self.indptr[i + 1] - self.indptr[i])

    def neighbors(self, i: int) -> np.ndarray:
        """Sorted neighbor ids of ``i`` (a read-only view)."""
        self._check_id(i)
        return self.indices[self.indptr[i] : self.indptr[i + 1]]

    @cached_property
    def edge_keys(self) -> np.ndarray:
        """``i * n + j`` for every neighbour ``j`` of every ``i``: ascending, in CSR order.

        A membership table for ordered pairs.  The keys fit an int64
        because :meth:`from_edges` refuses an ``n`` whose ``n * n`` does not.
        """
        rows = np.repeat(np.arange(self.n, dtype=np.int64), self.degrees)
        return rows * self.n + self.indices

    def edge_array(self) -> np.ndarray:
        """Each undirected edge once, as the rows (i, j) with i < j of an
        ``(m, 2)`` int64 array, in lexicographic order."""
        rows = np.repeat(np.arange(self.n, dtype=np.int64), self.degrees)
        upper = rows < self.indices
        return np.stack([rows[upper], self.indices[upper]], axis=1)

    def _check_id(self, i: int) -> None:
        if not 0 <= i < self.n:
            raise IndexError(f"vertex id {i} out of range [0,{self.n})")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.n == other.n
            and self.m == other.m
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def _sort_rows(pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows of an ``(m, 2)`` array in lexicographic order, plus a mask of
    the rows that equal the row before them."""
    pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
    repeated = np.zeros(len(pairs), dtype=bool)
    repeated[1:] = (pairs[1:] == pairs[:-1]).all(axis=1)
    return pairs, repeated


def _edge_pairs(edges) -> np.ndarray:
    """``edges``, id pairs or an integer array, as an ``(m, 2)`` int64
    array; a ValueError unless they are pairs of ids that fit in 64 bits."""
    try:
        pairs = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges), dtype=np.int64)
    except OverflowError:
        raise ValueError("vertex ids must fit in 64 bits") from None
    if pairs.size == 0:
        return pairs.reshape(0, 2)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError("edges must be (u, v) pairs")
    return pairs


def _edge_records(source) -> Iterator:
    """The edge-list line grammar, shared by every reader of the format.

    ``source`` is a path, an open text file, or an iterable of lines.
    Yields the count of the ``# n=<count>`` header first (``None`` when
    there is none), then each edge record as ``(u, v)`` in input order.
    A record is two vertex ids, each a string of ASCII decimal digits
    whose value is at most ``2**63 - 1``.
    Blank lines and lines starting with ``#`` or ``%`` are skipped.  The
    header may appear once, before the first edge; a misplaced or
    repeated header, like a malformed record, is a :class:`ParseError`
    naming its line.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="utf-8") as fh:
            yield from _edge_records(fh)
        return
    lines = enumerate(source, start=1)
    declared_n: int | None = None
    first = None
    for lineno, raw in lines:  # comments and the header, up to the first edge
        tokens = raw.split()
        if not tokens:
            continue
        if tokens[0][0] in "#%":
            header = _HEADER_RE.match(raw.strip())
            if header:
                if declared_n is not None:
                    raise ParseError(f"line {lineno}: repeated '# n=' header")
                declared_n = int(header.group(1))
            continue
        first = _vertex_ids(tokens, lineno)
        break
    yield declared_n
    if first is None:
        return
    yield first
    for lineno, raw in lines:
        tokens = raw.split()
        if len(tokens) == 2:
            a, b = tokens
            # ASCII digit strings shorter than 19 digits always fit an int64
            if a.isdigit() and b.isdigit() and len(a) < 19 and len(b) < 19 and raw.isascii():
                yield int(a), int(b)
                continue
        if not tokens:
            continue
        if tokens[0][0] in "#%":
            if _HEADER_RE.match(raw.strip()):
                raise ParseError(f"line {lineno}: '# n=' header after the first edge")
            continue
        yield _vertex_ids(tokens, lineno)


def _vertex_ids(tokens: list[str], lineno: int) -> tuple[int, int]:
    """The ids of an edge record's tokens: two strings of ASCII decimal
    digits, each of value at most ``2**63 - 1``; otherwise a ParseError."""
    if len(tokens) != 2:
        raise ParseError(f"line {lineno}: expected two vertex ids, got {len(tokens)} tokens")
    for t in tokens:
        digits = t.removeprefix("-")
        if not (digits.isascii() and digits.isdigit()):
            raise ParseError(f"line {lineno}: non-integer vertex id in {tokens!r}")
    if any(t.startswith("-") for t in tokens):
        raise ParseError(f"line {lineno}: vertex ids must be nonnegative")
    for t in tokens:
        if len(t.lstrip("0")) > 19 or int(t) > _MAX_ID:
            raise ParseError(f"line {lineno}: vertex id {t} does not fit in 64 bits")
    return int(tokens[0]), int(tokens[1])


def load_edge_list(source) -> Graph:
    """Parse an edge-list text source into a validated :class:`Graph`.

    ``source`` may be a path, an open text file, or an iterable of lines.
    Self-loops and duplicate undirected edges are dropped (counts logged
    as warnings); a source with no edge records at all is an error.
    """
    records = _edge_records(source)
    declared_n = next(records)
    pairs = np.fromiter(chain.from_iterable(records), dtype=np.int64).reshape(-1, 2)
    if not len(pairs):
        raise ParseError("empty input: no edge records")
    max_id = int(pairs.max())
    pairs.sort(axis=1)
    loops = pairs[:, 0] == pairs[:, 1]
    pairs, repeated = _sort_rows(pairs[~loops])
    if loops.any():
        log.warning("dropped %d self-loop(s)", loops.sum())
    if repeated.any():
        log.warning("dropped %d duplicate edge(s)", repeated.sum())
    n = declared_n if declared_n is not None else max_id + 1
    if max_id >= n:
        raise ParseError(f"vertex id {max_id} exceeds declared universe n={n}")
    return Graph.from_edges(pairs[~repeated], n=n)


def write_edge_list(g: Graph, sink) -> None:
    """Write ``g`` in the edge-list format, with an explicit ``# n=`` header."""

    np.savetxt(sink, g.edge_array(), fmt="%d", header=f"n={g.n}", comments="# ")


class EdgeStreamSource:
    """Ordered, replayable sequence of undirected edges.

    Each undirected edge appears exactly once per pass, and every pass
    yields the identical sequence.  :meth:`blocks` reads one pass as
    ``(k, 2)`` int64 arrays; subclasses implement ``_blocks``.
    ``passes`` counts completed full traversals; abandoning a pass midway
    does not count.  ``declared_n`` is the vertex count the source
    declares (a ``# n=`` header, say), or ``None``.
    """

    def __init__(self, declared_n: int | None = None) -> None:
        self.passes = 0
        self.declared_n = declared_n

    def _blocks(self, size: int) -> Iterator[np.ndarray]:
        raise NotImplementedError

    def blocks(self, size: int) -> Iterator[np.ndarray]:
        """One pass, in stream order, as ``(k, 2)`` int64 blocks of 1 to ``size`` edges."""
        if size < 1:
            raise ValueError("block size must be at least 1")
        yield from self._blocks(size)
        self.passes += 1


class MemoryEdgeStream(EdgeStreamSource):
    """Edge stream over in-memory id pairs, held as one read-only int64 array.

    Raises ValueError when built from anything but pairs of ids that fit
    in 64 bits.
    """

    def __init__(self, edges: Iterable[tuple[int, int]], n: int | None = None) -> None:
        super().__init__(n)
        self._edges = _edge_pairs(edges).copy()  # replays even if the caller's array changes
        self._edges.flags.writeable = False

    def _blocks(self, size: int) -> Iterator[np.ndarray]:
        for lo in range(0, len(self._edges), size):
            yield self._edges[lo : lo + size]


class FileEdgeStream(EdgeStreamSource):
    """Edge stream over an edge-list file (re-read lazily on every pass).

    Only one block of edges is held in memory at a time, so the stream
    itself adds O(block) to the estimator's working set.
    """

    def __init__(self, path) -> None:
        with closing(_edge_records(path)) as records:
            super().__init__(next(records))
        self.path = path

    def _blocks(self, size: int) -> Iterator[np.ndarray]:
        records = _edge_records(self.path)
        next(records)  # the header, already read
        while len(block := np.fromiter(chain.from_iterable(islice(records, size)), np.int64)):
            yield block.reshape(-1, 2)
