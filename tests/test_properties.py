"""Property tests over random graphs, stream orders, seeds and block sizes.

hypothesis comes with the ``test`` extra; the module is skipped where
it is missing.  Examples are derandomized and capped, so every run checks
the same inputs in a few seconds.
"""

import io
from unittest.mock import patch

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from trisample import (  # noqa: E402
    Graph,
    graph as graph_module,
    MemoryEdgeStream,
    count_exact,
    estimate,
    exact,
    load_edge_list,
    pass1_neighborhoods,
    pass2_local_counts,
    stream_estimate,
    streaming,
    write_edge_list,
)
from trisample.graph import _file_arrays  # noqa: E402
from reader_reference import edge_records  # noqa: E402
from trial_reference import neighbours  # noqa: E402

SETTINGS = settings(derandomize=True, max_examples=100, deadline=None, database=None)
BLOCKS = st.sampled_from([1, 2, 3, 7, 4096])


@st.composite
def streams(draw):
    """A simple graph on 3..24 vertices as a stream: its edges in a random
    order, each in a random orientation."""
    n = draw(st.integers(3, 24))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    flips = draw(st.lists(st.booleans(), min_size=len(chosen), max_size=len(chosen)))
    edges = draw(st.permutations([(j, i) if f else (i, j) for (i, j), f in zip(chosen, flips)]))
    return n, edges


@SETTINGS
@given(streams(), st.integers(0, 2**32 - 1), st.integers(1, 40), BLOCKS)
def test_stream_equals_in_memory_bit_for_bit(graph, seed, s, block):
    n, edges = graph
    with patch.object(streaming, "_STREAM_BLOCK", block):
        run = stream_estimate(MemoryEdgeStream(edges), s, seed=seed, n=n)
    assert run.passes_used == 2
    assert run.estimate == estimate(Graph.from_edges(edges, n=n), "qopt-uniform", s, seed=seed)


@SETTINGS
@given(streams(), st.data(), BLOCKS)
def test_counters_equal_the_oracle_after_pass2(graph, data, block):
    n, edges = graph
    sampled = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=10))
    g = Graph.from_edges(edges, n=n)
    prof = count_exact(g)
    with patch.object(streaming, "_STREAM_BLOCK", block):
        state = pass1_neighborhoods(MemoryEdgeStream(edges), sampled, n)
        pass2_local_counts(MemoryEdgeStream(edges), state)
    assert state.m == len(edges)
    for t, i in enumerate(sampled):
        assert int(state.vertex_count[t]) == int(prof.per_vertex[i])
        r = sorted(set(sampled)).index(i)  # the column of i's bits
        row = [v for v in range(n) if state.neighbor_bits[v, r >> 3] >> (r & 7) & 1]
        assert row == neighbours(g, i)


@SETTINGS
@given(streams())
def test_write_then_load_round_trips(graph):
    n, edges = graph
    g = Graph.from_edges(edges, n=n)
    text = io.StringIO()
    write_edge_list(g, text)
    back = load_edge_list(io.StringIO(text.getvalue()))
    assert back.n == g.n
    assert np.array_equal(back.indptr, g.indptr)
    assert np.array_equal(back.indices, g.indices)


@SETTINGS
@given(streams(), st.integers(0, 5))
def test_edge_array_and_edge_filter_agree_with_the_csr_arrays(graph, isolated):
    n, edges = graph
    g = Graph.from_edges(edges, n=n + isolated)
    rows = np.repeat(np.arange(g.n, dtype=np.int64), g.degrees)
    upper = rows < g.indices
    assert np.array_equal(g.edge_array(), np.stack([rows[upper], g.indices[upper]], axis=1))
    keys = np.minimum(rows, g.indices) * g.n + np.maximum(rows, g.indices)
    assert g.edge_filter.may_hold(keys).all()  # every edge, in both orientations
    indptr, indices = g.forward_runs
    assert indptr.dtype == indices.dtype == np.int64
    assert (len(indptr), len(indices)) == (g.n + 1, g.m) and indptr[0] == 0
    heads = np.repeat(np.arange(g.n, dtype=np.int64), np.diff(indptr))
    rank = g.degrees * g.n + np.arange(g.n)  # (degree, id)
    assert (rank[heads] < rank[indices]).all()  # each arc leaves its lower-ranked end
    assert (np.diff(heads * g.n + indices) > 0).all()  # ascending runs, each arc once
    arcs = np.sort(np.stack([heads, indices], axis=1), axis=1)
    assert np.array_equal(arcs[np.lexsort((arcs[:, 1], arcs[:, 0]))], g.edge_array())  # every edge


# Equal degrees, so the ranks tie on the id.
K5 = (5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
# A hub on an 8-cycle: it outranks all its neighbours, so N⁺(0) is empty.
WHEEL = (9, [(0, j) for j in range(1, 9)] + [(j, j % 8 + 1) for j in range(1, 9)])


@SETTINGS
@given(
    streams(),
    st.integers(0, 2**32 - 1),
    st.sampled_from([1, 2, 3, 64]),
    st.sampled_from([1, 2, 5, 8, 4096]),
)
@example(K5, 1, 2, 8)  # loads 6 + v: vertices 0-2 share rounds, 3 and 4 walk windows alone
@example(K5, 1, 64, 4096)
@example(WHEEL, 1, 3, 5)  # rim loads 3 to 5 fit a window, vertex 0 (load 16) walks four
@example(WHEEL, 2, 64, 4096)
def test_local_triangles_equal_the_oracle(graph, seed, rounds, gather):
    # Small rounds and windows, so that shared rounds, windows that split a
    # run, and vertices that walk windows alone all run on graphs of a few
    # vertices.
    n, edges = graph
    g = Graph.from_edges(edges, n=n)
    rng = np.random.default_rng(seed)
    vertices = rng.permutation(n)[: int(rng.integers(0, n + 1))]
    with patch.multiple(exact, _ROUND=rounds, _GATHER=gather):
        got = exact.local_triangles(g, vertices)
    assert got.tolist() == count_exact(g).per_vertex[vertices].tolist()


@SETTINGS
@given(streams(), st.data())
def test_load_drops_exactly_the_extra_copies_and_the_loops(graph, data):
    n, edges = graph
    copies = data.draw(st.lists(st.integers(1, 3), min_size=len(edges), max_size=len(edges)))
    loops = data.draw(st.lists(st.integers(0, n - 1), max_size=4))
    rows = [(u, v) for (u, v), c in zip(edges, copies) for _ in range(c)]
    rows = [(v, u) if data.draw(st.booleans()) else (u, v) for u, v in rows]
    rows = data.draw(st.permutations(rows + [(i, i) for i in loops]))
    with patch.object(graph_module.log, "warning") as warning:
        g = load_edge_list([f"# n={n}", *(f"{u} {v}" for u, v in rows)])
    assert g == Graph.from_edges(edges, n=n)
    assert np.array_equal(g.edge_keys, np.repeat(np.arange(n), g.degrees) * n + g.indices)
    logged = [call.args[0] % call.args[1:] for call in warning.call_args_list]
    extra = sum(copies) - len(edges)
    assert logged == [
        *([f"dropped {len(loops)} self-loop(s)"] if loops else []),
        *([f"dropped {extra} duplicate edge(s)"] if extra else []),
    ]


# Edge-list-like text over digits, blanks, line ends, comment marks, "-",
# "n=" and "x": edge records, headers and comments, and in half the texts
# one line of junk.  The ids straddle the array path's rule (a value below
# 10**18, whatever the number of digits) and the int64 limit.
_ID = st.sampled_from(
    ["0", "1", "2", "7", "10", "000000000000000003", "999999999999999999", "0000000000000000001"]
    + ["1000000000000000000", "9223372036854775807", "9223372036854775808"]
)
_BLANK = st.sampled_from(["", " ", "\t", " \t "])
_EDGE_LINE = st.tuples(_BLANK, _ID, st.sampled_from([" ", "\t", "  "]), _ID, _BLANK).map("".join)
_OTHER_LINE = st.sampled_from(["", "# c", "% c", "# n=5", "%n=12"])
_LINE = st.integers(0, 9).flatmap(lambda k: _OTHER_LINE if k == 9 else _EDGE_LINE)  # 9 in 10 are edges
_JUNK_LINE = st.lists(st.sampled_from(["0", "1", "9", " ", "\t", "#", "%", "-", "n=", "x"]), max_size=8).map("".join)
_END = st.sampled_from(["\n"] * 8 + ["\r\n", "\r"])


@st.composite
def edge_list_texts(draw):
    lines = draw(st.lists(_LINE, max_size=16))
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(_JUNK_LINE))
    ends = draw(st.lists(_END, min_size=len(lines), max_size=len(lines)))
    last = draw(st.sampled_from(["", "0 1"]))  # a last line without a line end
    return "".join(line + end for line, end in zip(lines, ends)) + last


def _outcome(read, data):
    """The header count and edge records ``read`` finds in ``data``, or
    the type and message of its error."""
    try:
        return read(data)
    except ValueError as exc:
        return type(exc), str(exc)


def _by_lines(data):
    records = edge_records(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    return next(records), [tuple(e) for e in records]


def _by_chunks(data):
    arrays = _file_arrays(io.BytesIO(data))
    return next(arrays), [tuple(e) for pairs in arrays for e in pairs.tolist()]


@SETTINGS
@given(edge_list_texts(), st.integers(1, 64))
def test_array_reader_agrees_with_the_line_grammar(text, chunk):
    data = text.encode("ascii")
    with patch("trisample.graph._CHUNK_BYTES", chunk):
        assert _outcome(_by_chunks, data) == _outcome(_by_lines, data)
