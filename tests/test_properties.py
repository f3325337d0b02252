"""Property tests over random graphs, stream orders, seeds and block sizes.

hypothesis is not a declared dependency, so the module is skipped where
it is missing.  Examples are derandomized and capped, so every run checks
the same inputs in a few seconds.
"""

import io
from unittest.mock import patch

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from trisample import (  # noqa: E402
    Graph,
    MemoryEdgeStream,
    count_exact,
    estimate,
    load_edge_list,
    pass1_neighborhoods,
    pass2_local_counts,
    stream_estimate,
    streaming,
    write_edge_list,
)

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
    prof = count_exact(Graph.from_edges(edges, n=n))
    with patch.object(streaming, "_STREAM_BLOCK", block):
        state = pass1_neighborhoods(MemoryEdgeStream(edges), sampled, n)
        pass2_local_counts(MemoryEdgeStream(edges), state)
    assert state.m == len(edges)
    for t, i in enumerate(sampled):
        assert int(state.vertex_count[t]) == int(prof.per_vertex[i])
        want = [prof.edge_count(i, j) for j in range(n)]
        assert state.edge_counts[t].tolist() == want


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
