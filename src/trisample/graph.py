r"""Simple undirected graphs in compressed adjacency form, plus edge streams.

The graph is immutable after construction: vertex ids are dense
``0..n-1``, adjacency is stored CSR-style (``indptr``/``indices``) with
each neighbor run sorted strictly ascending.  These two arrays are the
graph's representation; every reader, from the samplers to the exact
oracle and the edge-list writer, goes through them or through an index
derived from them: :attr:`Graph.edge_keys` (2m int64 keys) and
:attr:`Graph.edge_filter` (a fingerprint byte per slot, 8m to 16m bytes),
which the graph is built with, and :attr:`Graph.forward_runs` (int64
arrays of n + 1 and m entries: the one (degree, id) orientation, which
both triangle counters of :mod:`trisample.exact` read), cached on the
graph when first read.  Ids present nowhere in the
edge list but below the maximum id (or below an explicit header count)
are isolated vertices.  ``n`` is capped so that the edge keys
``i * n + j`` fit an int64.

Edges leave every reader as ``(k, 2)`` int64 arrays: an edge stream
yields a pass as the arrays it holds or parses, one per file chunk, and
:meth:`Graph.edge_array` gives all edges.

Membership of a pair is looked up in :attr:`Graph.edge_keys`, after
:attr:`Graph.edge_filter`, a one-hash filter of one-byte fingerprints
of the keys, has ruled out all but about 0.4% of the pairs that are not
edges.

Every edge-list source is read as bytes, by one reader: a path or an
open binary file as it stands, an open text file or an iterable of
lines as the UTF-8 encoding of its text.  The bytes are read in chunks
of 1 MiB, each read on to the end of its last line.  A chunk of plain
lines (ASCII digits, spaces, tabs and ``\n`` or ``\r\n`` line ends;
every non-blank line two ids, each of value below ``10**18``) is checked
in one scan of its id starts and line ends, and parsed with array
operations.  The lines up to the first edge, and any other chunk, go
through the one per-line grammar of :func:`_records`.  So the grammar,
and the line number of every error, do not depend on the source or on
how it is read.
"""

from __future__ import annotations

import io
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
_PLAIN_BELOW = 10**18  # plain ids are below this; np.fromstring saturates an overflow to 2**63 - 1
_CHUNK_BYTES = 1 << 20  # file bytes per chunk, read on to the end of a line
_FILTER_SLOTS = 8  # edge filter slots per edge, before rounding up to a power of two
_FILTER_HASH = np.uint64(0x9E3779B97F4A7C15)  # odd multiplier: 2**64 / golden ratio
_SHARED = 2  # an edge filter slot whose keys have two or more fingerprints; fingerprints are odd


class ParseError(ValueError):
    """Malformed edge-list input."""


@dataclass(frozen=True, eq=False)
class EdgeFilter:
    """A one-hash fingerprint filter over the canonical edge keys
    ``min(i, j) * n + max(i, j)`` of a graph: a table of one-byte
    fingerprints, as a cuckoo filter keeps (Fan et al., CoNEXT 2014), but
    with one slot per key and no relocation.

    :meth:`may_hold` is true for every edge's key and false for most other
    keys, so only the keys it passes need an exact lookup.  The table has
    a byte for each of ``2**bits`` slots, at least ``_FILTER_SLOTS`` and
    fewer than twice as many per edge.  A key's multiplicative hash picks
    its slot with its top ``bits`` bits, and its next 8 bits, with the low
    bit set, are the key's odd fingerprint.  A slot holds 0 if no edge's
    key hashes to it, the fingerprint its keys share if they share one,
    and ``_SHARED`` (2, which no fingerprint is) otherwise.  A key passes
    if its slot holds its fingerprint or ``_SHARED``.  So 6% to 12% of the
    slots hold a key.  A key of no edge passes where its slot is shared
    (about half the square of that share of the slots) or holds the key's
    own fingerprint (one time in 128): 0.25% to 0.9% of such keys pass,
    0.35% to 0.45% on the benchmark's graphs.
    """

    table: np.ndarray = field(repr=False)
    shift: np.uint64  # 56 - bits: v = hash >> shift holds the slot, then the fingerprint's 8 bits

    @classmethod
    def of(cls, keys: np.ndarray, m: int) -> "EdgeFilter":
        """The filter of a graph with ``m`` edges whose canonical keys,
        repeats allowed, are the int64 array ``keys``.

        The table does not depend on the order of the keys or on their
        repeats: a slot keeps a fingerprint only when every key written to
        it has that one.
        """
        bits = (_FILTER_SLOTS * max(m, 1) - 1).bit_length()
        f = cls(np.zeros(1 << bits, dtype=np.uint8), np.uint64(56 - bits))
        slots, prints = f._hash(keys)
        f.table[slots] = prints  # the last write to a slot wins
        f.table[slots.compress(f.table[slots] != prints)] = _SHARED  # slots another print overwrote
        return f

    def _hash(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The slot and the fingerprint of each key."""
        v = np.asarray(keys, dtype=np.int64).view(np.uint64) * _FILTER_HASH  # wraps mod 2**64
        v >>= self.shift
        prints = v.astype(np.uint8)  # the low 8 bits
        prints |= 1
        v >>= np.uint64(8)
        return v.view(np.int64), prints  # slots below 2**bits index faster as intp

    def may_hold(self, keys: np.ndarray) -> np.ndarray:
        """False where a canonical key is surely no edge's."""
        slots, prints = self._hash(keys)
        held = self.table[slots]
        passed = held == prints
        passed |= held == _SHARED
        return passed


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable simple undirected graph.

    ``indptr`` has length ``n + 1``; ``indices[indptr[i]:indptr[i+1]]``
    is the sorted neighbor run of vertex ``i``.  ``edge_keys`` holds
    ``i * n + j`` for every neighbour ``j`` of every ``i``, ascending, in
    CSR order: a membership table for ordered pairs, whose keys fit an
    int64 because the builders refuse an ``n`` whose ``n * n`` does not.
    ``edge_filter`` is the :class:`EdgeFilter` of the keys with i < j.
    Every graph is built, with both, by :meth:`from_edges` or
    :func:`load_edge_list`.  Safe to share across concurrent readers.
    """

    n: int
    m: int
    indptr: np.ndarray = field(repr=False)
    indices: np.ndarray = field(repr=False)
    edge_keys: np.ndarray = field(repr=False)
    edge_filter: EdgeFilter = field(repr=False)

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
    # row i's keys start at i * n: no 2m-long array of rows, and one search per row
    indptr = keys.searchsorted(np.arange(n + 1, dtype=np.int64) * n)
    return Graph(n=n, m=m, indptr=indptr, indices=keys % n, edge_keys=keys, edge_filter=edge_filter)


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


def _records(lines, header: list[int] | None = None) -> Iterator[tuple[int, int]]:
    """The edge records of numbered lines, as ``(u, v)`` in input order.

    ``lines`` yields ``(line number, text)``.  A record is two vertex ids,
    each a string of ASCII decimal digits of value at most ``2**63 - 1``;
    a malformed one is a :class:`ParseError` naming its line.  Blank lines
    and lines starting with ``#`` or ``%`` are skipped.  The ``# n=<count>``
    header, a comment too, may appear once, before the first edge:
    ``header`` is the list its count is appended to while one may still
    come, and ``None`` when the lines follow an edge.  Any other header is
    a :class:`ParseError` naming its line.
    """
    for lineno, raw in lines:
        tokens = raw.split()
        if len(tokens) == 2:
            a, b = tokens
            # ASCII digit strings shorter than 19 digits always fit an int64
            if a.isdigit() and b.isdigit() and len(a) < 19 and len(b) < 19 and raw.isascii():
                header = None
                yield int(a), int(b)
                continue
        if not tokens:
            continue
        if tokens[0][0] in "#%":
            count = _HEADER_RE.match(raw.strip())
            if count:
                if header is None:
                    raise ParseError(f"line {lineno}: '# n=' header after the first edge")
                if header:
                    raise ParseError(f"line {lineno}: repeated '# n=' header")
                header.append(int(count.group(1)))
            continue
        header = None
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


def _binary(source) -> bool:
    """Whether ``source`` is a file open in binary mode: its reads give bytes."""
    return hasattr(source, "read") and isinstance(source.read(0), bytes)


def _edge_arrays(source) -> Iterator:
    r"""The edge-list reader: the header count (``None`` when there is
    none), then the edge records in input order as ``(k, 2)`` int64 arrays.

    Every source goes through :func:`_file_arrays`.  A path or an open
    binary file is read in byte chunks.  An open text file is read whole,
    and the items of an iterable of lines are joined, each one line ended
    by a ``\n`` if it has none; that text is read as its UTF-8 bytes, as
    a file holding it would be.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source, "rb") as fh:
            yield from _file_arrays(fh)
    elif _binary(source):
        yield from _file_arrays(source)
    else:
        if hasattr(source, "read"):
            text = source.read()
        else:
            text = "".join(line if line.endswith("\n") else line + "\n" for line in source)
        yield from _file_arrays(io.BytesIO(text.encode()))


def _file_arrays(fh) -> Iterator:
    r""":func:`_edge_arrays` over a binary file.

    The lines up to the first edge go one at a time through the line
    grammar, so the header count is known once the first edge is read.
    The rest is read in chunks of whole lines: a chunk that
    :func:`_plain_pairs` accepts is parsed whole, and any other chunk is
    decoded as UTF-8 and read line by line, its lines numbered on from
    the lines before it.  Lines end where a text-mode read ends them (at
    ``\n``, ``\r\n`` and a lone ``\r``), and errors name the lines so
    numbered, wherever the chunks are cut.
    """
    lineno, header, first = 1, [], None
    while first is None and (line := fh.readline()):
        text = _text_lines(line)  # more than one line if a lone \r ends some
        records = _records(enumerate(text, start=lineno), header)
        first = next(records, None)
        lineno += len(text)
    yield header[0] if header else None
    if first is None:
        return
    yield _pairs(chain([first], records))
    while chunk := fh.read(_CHUNK_BYTES):
        if not chunk.endswith(b"\n"):
            chunk += fh.readline()  # on to the end of the line the read cut
        plain = _plain_pairs(chunk)
        if plain is None:
            text = _text_lines(chunk)
            yield _pairs(_records(enumerate(text, start=lineno)))
            lineno += len(text)
        else:
            pairs, lines = plain
            yield pairs
            lineno += lines


def _text_lines(chunk: bytes) -> list[str]:
    r"""A chunk of whole lines decoded as UTF-8 and split as a text-mode
    file splits it: at ``\n``, ``\r\n`` and a lone ``\r`` only."""
    lines = chunk.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if not lines[-1]:
        lines.pop()
    return lines


def _plain_pairs(chunk: bytes) -> tuple[np.ndarray, int] | None:
    r"""The edge records of a chunk of plain lines as an ``(k, 2)`` int64
    array, and the number of ``\n`` bytes in the chunk; or None if it is
    not one.

    Plain means: only ASCII digits, spaces, tabs, ``\n`` and a ``\r``
    right before a ``\n``, each non-blank line two ids, and each id of
    value below ``10**18``.  Such lines are edge records whatever their
    place in the file.  A lone ``\r`` ends a line in text mode, so it is
    not plain.
    """
    # digits, blanks, \n and \r only; np.fromstring reads a \r as a blank, and a check
    # below keeps each \r in a \r\n
    rest = chunk.translate(None, b"0123456789 \t\n")
    if rest.strip(b"\r"):
        return None
    b = np.frombuffer(chunk, dtype=np.uint8)
    digit = (b - 48) < 10  # wraps below "0"
    events = b == 10  # the line ends and, below, the id starts
    events[0] |= digit[0]
    events[1:] |= digit[1:] > digit[:-1]
    at = np.flatnonzero(events)
    ends = np.ones(len(at) + 2, dtype=bool)  # a line end before and after the chunk
    np.equal(b[at], 10, out=ends[1:-1])
    # as many \r as line ends right after one (a \n at byte 0 has no byte before it)
    if rest and np.count_nonzero(b[at[ends[1:-1] & (at > 0)] - 1] == 13) != len(rest):
        return None
    # each line holds 0 or 2 ids: every id start has one id start beside it
    if (~ends[1:-1] & (ends[:-2] == ends[2:])).any():
        return None
    lines = np.count_nonzero(ends) - 2
    ids = np.fromstring(chunk, dtype=np.int64, count=len(at) - lines, sep=" ")
    if len(ids) and ids.max() >= _PLAIN_BELOW:
        return None
    return ids.reshape(-1, 2), lines


def _pairs(records) -> np.ndarray:
    """Edge records as an ``(k, 2)`` int64 array."""
    return np.fromiter(chain.from_iterable(records), dtype=np.int64).reshape(-1, 2)


def load_edge_list(source) -> Graph:
    """Parse an edge-list text source into a validated :class:`Graph`.

    ``source`` may be a path, an open text or binary file, or an iterable
    of lines, each item one line; all are read by the one byte reader of
    the format (see the module docstring), so a text source loads as a
    file holding its text does.  A text source is held whole while it is
    parsed.
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
    if (keys[1:] == keys[:-1]).any():  # a repeated edge repeats in both orientations
        fresh = np.diff(keys, prepend=-1) > 0  # keys are nonnegative
        keys = keys[fresh]
        log.warning("dropped %d duplicate edge(s)", (len(fresh) - len(keys)) // 2)
    return _from_keys(keys, canonical, n)


def write_edge_list(g: Graph, sink) -> None:
    """Write ``g`` in the edge-list format, with an explicit ``# n=`` header."""

    np.savetxt(sink, g.edge_array(), fmt="%d", header=f"n={g.n}", comments="# ")


class EdgeStreamSource:
    """Ordered, replayable sequence of undirected edges.

    Each undirected edge appears exactly once per pass, and every pass
    yields the identical sequence.  :meth:`arrays` reads one pass as the
    ``(k, 2)`` int64 arrays the source holds or parses; subclasses
    implement ``_arrays``.  ``passes`` counts completed full traversals;
    abandoning a pass midway does not count.  ``declared_n`` is the
    vertex count the source declares (a ``# n=`` header, say), or ``None``.
    """

    def __init__(self, declared_n: int | None = None) -> None:
        self.passes = 0
        self.declared_n = declared_n

    def _arrays(self) -> Iterator[np.ndarray]:
        raise NotImplementedError

    def arrays(self) -> Iterator[np.ndarray]:
        """One pass, in stream order, as ``(k, 2)`` int64 arrays; any may be empty."""
        yield from self._arrays()
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

    def _arrays(self) -> Iterator[np.ndarray]:
        yield self._edges


class FileEdgeStream(EdgeStreamSource):
    """Edge stream over an edge-list file (re-read lazily on every pass).

    ``source`` is a path or an open binary file; an open file is read
    from its start on every pass and left open.  A pass holds one chunk
    of the file (about 1 MiB) and its edges at a time, so the stream
    adds O(chunk) to the estimator's working set.
    """

    def __init__(self, source) -> None:
        if not isinstance(source, (str, os.PathLike)) and not _binary(source):
            raise TypeError("FileEdgeStream reads a path or a file open in binary mode ('rb')")
        self.source = source
        with closing(self._read()) as arrays:
            super().__init__(next(arrays))

    def _read(self) -> Iterator:
        if not isinstance(self.source, (str, os.PathLike)):
            self.source.seek(0)
        return _edge_arrays(self.source)

    def _arrays(self) -> Iterator[np.ndarray]:
        with closing(self._read()) as arrays:
            next(arrays)  # the header, already read
            yield from arrays
