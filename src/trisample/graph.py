r"""Simple undirected graphs in compressed adjacency form, plus edge streams.

The graph is immutable after construction: vertex ids are dense
``0..n-1``, adjacency is stored CSR-style (``indptr``/``indices``) with
each neighbor run sorted strictly ascending.  These two arrays are the
graph's representation; every reader, from the samplers to the exact
oracle and the edge-list writer, goes through them or through an index
derived from them and cached on the graph: :attr:`Graph.edge_keys`
(2m int64 keys), :attr:`Graph.edge_filter` (a byte per slot, 8m to 16m
bytes) and :attr:`Graph.forward_runs` (int64 arrays of n + 1 and m
entries: the one (degree, id) orientation, which both triangle
counters of :mod:`trisample.exact` read).  Ids present nowhere in the
edge list but below the maximum id (or below an explicit header count)
are isolated vertices.  ``n`` is capped so that the edge keys
``i * n + j`` fit an int64.

Edges leave every reader as ``(k, 2)`` int64 arrays: an edge stream
yields a pass as blocks, and :meth:`Graph.edge_array` gives all edges.

Membership of a pair is looked up in :attr:`Graph.edge_keys`, after
:attr:`Graph.edge_filter`, a one-hash bit filter over the keys, has
ruled out most of the pairs that are not edges.

Edge-list files are read in byte chunks of 1 MiB, each read on to the
end of its last line.  A chunk of plain lines (ASCII digits, spaces,
tabs and ``\n`` or ``\r\n`` line ends; every non-blank line two ids
of at most 18 digits) is parsed with array operations.  The lines up
to the first edge, and any other chunk, go through the per-line grammar
of :func:`_edge_records`, which text sources use throughout.  So the
grammar, and the line number of every error, do not depend on how a
file is read.
"""

from __future__ import annotations

import logging
import numbers
import os
import re
from contextlib import closing
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from math import isqrt
from typing import Iterable, Iterator

import numpy as np

log = logging.getLogger(__name__)

_HEADER_RE = re.compile(r"^[#%]\s*n\s*=\s*(\d+)\s*$", re.ASCII)
_MAX_ID = 2**63 - 1  # ids index int64 arrays
_MAX_N = isqrt(_MAX_ID + 1)  # the edge keys i * n + j < n * n fit an int64
_PLAIN_DIGITS = 18  # any id of at most 18 digits fits an int64
_CHUNK_BYTES = 1 << 20  # file bytes per chunk, read on to the end of a line
_FILTER_SLOTS = 8  # edge filter slots per edge, before rounding up to a power of two
_FILTER_HASH = np.uint64(0x9E3779B97F4A7C15)  # odd multiplier: 2**64 / golden ratio


class ParseError(ValueError):
    """Malformed edge-list input."""


@dataclass(frozen=True, eq=False)
class EdgeFilter:
    """A one-hash bit filter (Bloom, CACM 1970) over the canonical edge
    keys ``min(i, j) * n + max(i, j)`` of a graph.

    :meth:`may_hold` is true for every edge's key and false for most other
    keys, so only the keys it passes need an exact lookup.  The table has
    a byte for each of ``2**bits`` slots, at least ``_FILTER_SLOTS`` and
    fewer than twice as many per edge, and a key sets or reads the slot
    given by the top ``bits`` bits of its multiplicative hash.  So 6% to
    12% of the slots are set, and as many of the keys of non-edges pass.
    """

    table: np.ndarray = field(repr=False)
    shift: np.uint64  # 64 - bits

    @classmethod
    def of(cls, keys: np.ndarray, m: int) -> "EdgeFilter":
        """The filter of a graph with ``m`` edges whose canonical keys,
        repeats allowed, are the int64 array ``keys``."""
        bits = (_FILTER_SLOTS * max(m, 1) - 1).bit_length()
        f = cls(np.zeros(1 << bits, dtype=bool), np.uint64(64 - bits))
        f.table[f._slots(keys)] = True
        return f

    def _slots(self, keys: np.ndarray) -> np.ndarray:
        slots = np.asarray(keys, dtype=np.int64).view(np.uint64) * _FILTER_HASH  # wraps mod 2**64
        slots >>= self.shift
        return slots

    def may_hold(self, keys: np.ndarray) -> np.ndarray:
        """False where a canonical key is surely no edge's."""
        return self.table[self._slots(keys)]


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

        ``edges`` may be any iterable of integer id pairs or an ``(m, 2)``
        integer array; other ids, such as floats or strings, are refused.
        Rejects self-loops, duplicate undirected edges and more than
        ``3037000499`` vertices; use :func:`load_edge_list` for tolerant
        ingestion of raw files.
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
        _check_universe(n)
        if max_id >= n:  # keys i * n + j would collide: look for a duplicate by rows
            if len(np.unique(np.sort(und, axis=1), axis=0)) < m:
                raise ValueError("duplicate undirected edges not allowed")
            raise ValueError(f"vertex id {max_id} out of declared range n={n}")
        keys, canonical = _pair_keys(und[:, 0], und[:, 1], n)
        if (keys[1:] == keys[:-1]).any():
            raise ValueError("duplicate undirected edges not allowed")
        return _from_keys(keys, canonical, n)

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
        A graph built from an edge list holds the keys it was built from.
        """
        rows = np.repeat(np.arange(self.n, dtype=np.int64), self.degrees)
        return rows * self.n + self.indices

    @cached_property
    def edge_filter(self) -> EdgeFilter:
        """The :class:`EdgeFilter` of the keys ``i * n + j``, i < j, of the edges.

        A graph built from an edge list holds the filter built with it.
        """
        rows = np.repeat(np.arange(self.n, dtype=np.int64), self.degrees)
        return EdgeFilter.of(self.edge_keys[rows < self.indices], self.m)

    @cached_property
    def forward_runs(self) -> tuple[np.ndarray, np.ndarray]:
        """``(indptr, indices)`` of the degree-ordered orientation: each edge
        once, as an arc from its end of lower (degree, id) to the other.

        ``indices[indptr[i]:indptr[i+1]]`` is the ascending run N⁺(i) of
        the neighbours that outrank ``i``; the arrays are int64, of ``n + 1``
        and ``m`` entries.  Built from the CSR arrays when first read, by
        ``exact.count_exact`` or by the first ``exact.local_triangles``.
        """
        rank = self.degrees * self.n + np.arange(self.n)  # (degree, id), fits an int64
        kept = np.flatnonzero(rank[self.indices] > rank.repeat(self.degrees))  # the arcs' slots
        return kept.searchsorted(self.indptr), self.indices[kept]

    def edge_array(self) -> np.ndarray:
        """Each undirected edge once, as the rows (i, j) with i < j of an
        ``(m, 2)`` int64 array, in lexicographic order."""
        ids = np.arange(self.n, dtype=np.int64)
        first = self.edge_keys.searchsorted(ids * (self.n + 1))  # each run's first j > i
        upper = self.indptr[1:] - first
        positions = (first - np.cumsum(upper) + upper).repeat(upper)
        positions += np.arange(len(positions))
        edges = np.empty((len(positions), 2), dtype=np.int64)
        edges[:, 0] = ids.repeat(upper)
        edges[:, 1] = self.indices[positions]
        return edges

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


def _check_universe(n: int) -> None:
    if n > _MAX_N:
        raise ValueError(f"n={n} vertices exceed the limit of {_MAX_N} (edge keys would overflow int64)")


def _pair_keys(u: np.ndarray, v: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The keys ``i * n + j`` of both orientations of the edges (u, v),
    sorted into CSR order, and the canonical keys ``min * n + max`` in
    input order.  Ids must lie in ``[0, n)``, so the keys fit an int64."""
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    canonical = lo * n
    canonical += hi
    hi *= n
    hi += lo
    keys = np.concatenate([canonical, hi])
    keys.sort()
    return keys, canonical


def _from_keys(keys: np.ndarray, canonical: np.ndarray, n: int) -> Graph:
    """The graph whose ordered pairs (i, j) have the keys ``i * n + j`` in
    ``keys``: sorted, without repeats, both orientations of every edge.

    ``canonical`` holds the key ``min * n + max`` of every edge, repeats
    allowed.  The graph keeps ``keys`` as its :attr:`Graph.edge_keys` and
    hashes ``canonical`` into its :attr:`Graph.edge_filter`.
    """
    m = len(keys) // 2
    edge_filter = EdgeFilter.of(canonical, m)
    rows, indices = np.divmod(keys, n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    g = Graph(n=n, m=m, indptr=indptr, indices=indices)
    vars(g).update(edge_keys=keys, edge_filter=edge_filter)  # seed the cached properties
    return g


def _edge_pairs(edges) -> np.ndarray:
    """``edges``, id pairs or an integer array, as an ``(m, 2)`` int64
    array; a ValueError unless they are pairs of integer ids that fit in
    64 bits.  Floats and strings are refused, not truncated or parsed."""
    if not isinstance(edges, np.ndarray):
        edges = list(edges)
    try:
        pairs = np.asarray(edges)
    except ValueError:  # ragged
        raise ValueError("edges must be (u, v) pairs") from None
    if pairs.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError("edges must be (u, v) pairs")
    if pairs.dtype.kind == "u" and pairs.max() > _MAX_ID:
        raise ValueError("vertex ids must fit in 64 bits")
    if pairs.dtype.kind not in "iu":  # Python ints beyond int64 come as floats or objects
        ids = [x for pair in edges for x in pair]
        if not all(isinstance(x, numbers.Integral) for x in ids):
            raise ValueError("vertex ids must be integers")
        if min(ids) < -_MAX_ID - 1 or max(ids) > _MAX_ID:
            raise ValueError("vertex ids must fit in 64 bits")
        pairs = np.array(ids, dtype=np.int64).reshape(-1, 2)
    return pairs.astype(np.int64, copy=False)


def _edge_records(source) -> Iterator:
    """The edge-list line grammar, shared by every reader of the format.

    ``source`` is an open text file or an iterable of lines.
    Yields the count of the ``# n=<count>`` header first (``None`` when
    there is none), then each edge record as ``(u, v)`` in input order.
    A record is two vertex ids, each a string of ASCII decimal digits
    whose value is at most ``2**63 - 1``.
    Blank lines and lines starting with ``#`` or ``%`` are skipped.  The
    header may appear once, before the first edge; a misplaced or
    repeated header, like a malformed record, is a :class:`ParseError`
    naming its line.
    """
    lines = enumerate(source, start=1)
    declared_n, first = _prelude(lines)
    yield declared_n
    if first is None:
        return
    yield first
    yield from _body(lines)


def _prelude(lines, declared_n: int | None = None) -> tuple[int | None, tuple[int, int] | None]:
    """Read numbered lines up to and including the first edge record.

    Returns the header count (``declared_n`` if no header is read) and
    the first edge, or ``None`` when the lines run out first.
    """
    for lineno, raw in lines:
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
        return declared_n, _vertex_ids(tokens, lineno)
    return declared_n, None


def _body(lines) -> Iterator[tuple[int, int]]:
    """The edge records of numbered lines that follow the first edge."""
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


def _edge_arrays(source) -> Iterator:
    """The edge-list reader: the header count (``None`` when there is
    none), then the edge records in input order as ``(k, 2)`` int64 arrays.

    A path is read in byte chunks by :func:`_file_arrays`; an open text
    file or an iterable of lines goes through :func:`_edge_records`.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source, "rb") as fh:
            yield from _file_arrays(fh)
        return
    records = _edge_records(source)
    yield next(records)
    yield _pairs(records)


def _file_arrays(fh) -> Iterator:
    """:func:`_edge_arrays` over a binary file.

    The lines up to the first edge go one at a time through the line
    grammar, so the header count is known once the first edge is read.
    The rest is read in chunks of whole lines: a chunk that
    :func:`_plain_ids` accepts is parsed whole, and any other chunk is
    decoded as UTF-8 and read line by line, its lines numbered on from
    the lines before it.  Errors, and the line numbers they name, are
    those of a text-mode read of the same file.
    """
    lineno, declared_n, first = 1, None, None
    while first is None and (line := fh.readline()):
        text = _text_lines(line)  # more than one line if a lone \r ends some
        lines = enumerate(text, start=lineno)
        declared_n, first = _prelude(lines, declared_n)
        lineno += len(text)
    yield declared_n
    if first is None:
        return
    yield _pairs(chain([first], _body(lines)))
    while chunk := fh.read(_CHUNK_BYTES):
        if not chunk.endswith(b"\n"):
            chunk += fh.readline()  # on to the end of the line the read cut
        plain = _plain_ids(chunk)
        if plain is None:
            text = _text_lines(chunk)
            yield _pairs(_body(enumerate(text, start=lineno)))
            lineno += len(text)
        else:
            ids, lines = plain
            yield np.fromstring(chunk, dtype=np.int64, count=ids, sep=" ").reshape(-1, 2)
            lineno += lines


def _text_lines(chunk: bytes) -> list[str]:
    r"""A chunk of whole lines decoded as UTF-8 and split as a text-mode
    file splits it: at ``\n``, ``\r\n`` and a lone ``\r`` only."""
    lines = chunk.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if not lines[-1]:
        lines.pop()
    return lines


def _plain_ids(chunk: bytes) -> tuple[int, int] | None:
    r"""The number of ids and of ``\n`` bytes in a chunk of plain lines, or
    None if it is not one.

    Plain means: only ASCII digits, spaces, tabs, ``\n`` and a ``\r``
    right before a ``\n``, and each non-blank line two ids of at most 18
    digits.  Such lines are edge records whatever their place in the file,
    and their ids fit an int64.  A lone ``\r`` ends a line in text mode,
    so it is not plain.
    """
    b = np.frombuffer(chunk, dtype=np.uint8)
    digit = (b - 48) < 10  # wraps below "0"
    newline = b == 10
    plain = digit | newline | (b == 32) | (b == 9)
    if b"\r" in chunk:  # np.fromstring reads the \r of a \r\n as a blank
        plain |= (b == 13) & np.append(newline[1:], False)
    if not plain.all():
        return None
    bounds = np.flatnonzero(np.diff(digit, prepend=False, append=False))
    starts, ends = bounds[0::2], bounds[1::2]  # digit runs: the ids
    if len(starts) and (ends - starts).max() > _PLAIN_DIGITS:
        return None
    line_ends = np.append(np.flatnonzero(newline), len(b))
    per_line = np.diff(np.searchsorted(starts, line_ends), prepend=0)
    if ((per_line != 0) & (per_line != 2)).any():
        return None
    return len(starts), len(line_ends) - 1


def _pairs(records) -> np.ndarray:
    """Edge records as an ``(k, 2)`` int64 array."""
    return np.fromiter(chain.from_iterable(records), dtype=np.int64).reshape(-1, 2)


def load_edge_list(source) -> Graph:
    """Parse an edge-list text source into a validated :class:`Graph`.

    ``source`` may be a path, an open text file, or an iterable of lines.
    Self-loops and duplicate undirected edges are dropped (counts logged
    as warnings); a source with no edge records at all is an error.
    """
    arrays = _edge_arrays(source)
    declared_n = next(arrays)
    pairs = np.concatenate([np.empty((0, 2), dtype=np.int64), *arrays])
    if not len(pairs):
        raise ParseError("empty input: no edge records")
    max_id = int(pairs.max())
    n = declared_n if declared_n is not None else max_id + 1
    if max_id >= n:
        raise ParseError(f"vertex id {max_id} exceeds declared universe n={n}")
    _check_universe(n)
    u, v = pairs[:, 0], pairs[:, 1]
    loops = u == v
    if loops.any():
        log.warning("dropped %d self-loop(s)", loops.sum())
        u, v = u[~loops], v[~loops]
    keys, canonical = _pair_keys(u, v, n)
    del pairs, u, v, loops  # the keys hold the edges from here on
    fresh = np.diff(keys, prepend=-1) > 0  # keys are nonnegative
    if not fresh.all():
        keys = keys[fresh]  # a repeated edge repeats in both orientations
        log.warning("dropped %d duplicate edge(s)", (len(fresh) - len(keys)) // 2)
    return _from_keys(keys, canonical, n)


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

    ``source`` is a path or an open binary file; an open file is read
    from its start on every pass and left open.  A pass holds one chunk
    of the file (about 1 MiB) and its edges at a time, so the stream
    adds O(chunk + block) to the estimator's working set.
    """

    def __init__(self, source) -> None:
        self.source = source
        with closing(self._arrays()) as arrays:
            super().__init__(next(arrays))

    def _arrays(self) -> Iterator:
        if isinstance(self.source, (str, os.PathLike)):
            return _edge_arrays(self.source)
        self.source.seek(0)
        return _file_arrays(self.source)

    def _blocks(self, size: int) -> Iterator[np.ndarray]:
        with closing(self._arrays()) as arrays:
            next(arrays)  # the header, already read
            held = np.empty((0, 2), dtype=np.int64)
            for pairs in arrays:
                pairs = np.concatenate([held, pairs])
                whole = len(pairs) - len(pairs) % size
                for lo in range(0, whole, size):
                    yield pairs[lo : lo + size]
                held = pairs[whole:]
            if len(held):
                yield held
