"""Simple undirected graphs in compressed adjacency form, plus edge streams.

The graph is immutable after construction: vertex ids are dense
``0..n-1``, adjacency is stored CSR-style (``indptr``/``indices``) with
each neighbor run sorted strictly ascending.  These two arrays are the
graph's only representation; every reader, from single-edge lookups to
the exact oracle, goes through them.  Ids present nowhere in the edge
list but below the maximum id (or below an explicit header count) are
isolated vertices.
"""

from __future__ import annotations

import logging
import os
import re
from contextlib import closing
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Iterable, Iterator

import numpy as np

log = logging.getLogger(__name__)

_HEADER_RE = re.compile(r"^[#%]\s*n\s*=\s*(\d+)\s*$", re.ASCII)
_MAX_ID = 2**63 - 1  # ids index int64 arrays


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
        array.  Rejects self-loops and duplicate undirected edges; use
        :func:`load_edge_list` for tolerant ingestion of raw files.
        """
        und = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges), dtype=np.int64)
        if und.size == 0:
            und = und.reshape(0, 2)
        elif und.ndim != 2 or und.shape[1] != 2:
            raise ValueError("edges must be (u, v) pairs")
        bad = (und[:, 0] == und[:, 1]) | (und < 0).any(axis=1)
        if bad.any():
            u, v = und[bad.argmax()].tolist()
            if u == v:
                raise ValueError(f"self-loop ({u},{u}) not allowed")
            raise ValueError("vertex ids must be nonnegative")
        m = len(und)
        both, repeated = _sort_rows(np.concatenate([und, und[:, ::-1]]))
        if repeated.any():
            raise ValueError("duplicate undirected edges not allowed")
        max_id = int(both[-1, 0]) if m else -1
        if n is None:
            n = max_id + 1
        elif max_id >= n:
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

        A membership table for ordered pairs; ``n * n`` fits an int64 for
        every graph whose ``indptr`` fits in memory.
        """
        rows = np.repeat(np.arange(self.n, dtype=np.int64), self.degrees)
        return rows * self.n + self.indices

    def edges(self) -> Iterator[tuple[int, int]]:
        """Each undirected edge once, as (i, j) with i < j, lexicographic."""
        for i in range(self.n):
            for j in self.indices[self.indptr[i] : self.indptr[i + 1]]:
                if i < j:
                    yield i, int(j)

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


def has_edge(g: Graph, i: int, j: int) -> bool:
    """True iff {i, j} is an edge, by binary search in the neighbor list."""
    nb = g.neighbors(i)
    g._check_id(j)
    k = int(nb.searchsorted(j))
    return k < len(nb) and int(nb[k]) == j


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

    def _write(fh) -> None:
        fh.write(f"# n={g.n}\n")
        for i, j in g.edges():
            fh.write(f"{i} {j}\n")

    if isinstance(sink, (str, os.PathLike)):
        with open(sink, "w", encoding="utf-8") as fh:
            _write(fh)
    else:
        _write(sink)


class EdgeStreamSource:
    """Ordered, replayable sequence of undirected edges.

    Each undirected edge appears exactly once per pass, and iteration
    yields the identical sequence on every pass.  ``passes`` counts
    completed full traversals; abandoning an iteration midway does not
    count.
    """

    def __init__(self) -> None:
        self.passes = 0

    def _iter_edges(self) -> Iterator[tuple[int, int]]:
        raise NotImplementedError

    def __iter__(self) -> Iterator[tuple[int, int]]:
        yield from self._iter_edges()
        self.passes += 1

    @property
    def declared_n(self) -> int | None:
        """Vertex count from a ``# n=`` header, when the source carries one."""
        return None


class MemoryEdgeStream(EdgeStreamSource):
    """Edge stream over an in-memory sequence."""

    def __init__(self, edges: Iterable[tuple[int, int]], n: int | None = None) -> None:
        super().__init__()
        self._edges = [(int(u), int(v)) for u, v in edges]
        self._n = n

    def _iter_edges(self) -> Iterator[tuple[int, int]]:
        yield from self._edges

    @property
    def declared_n(self) -> int | None:
        return self._n


class FileEdgeStream(EdgeStreamSource):
    """Edge stream over an edge-list file (re-read lazily on every pass).

    Only one line is held in memory at a time, so the stream itself adds
    nothing to the estimator's working-set bound.
    """

    def __init__(self, path) -> None:
        super().__init__()
        self.path = path
        with closing(_edge_records(path)) as records:
            self._declared_n = next(records)

    def _iter_edges(self) -> Iterator[tuple[int, int]]:
        records = _edge_records(self.path)
        next(records)  # the header, already read
        yield from records

    @property
    def declared_n(self) -> int | None:
        return self._declared_n
