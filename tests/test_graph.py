import io
import logging
from unittest.mock import patch

import numpy as np
import pytest

from trisample import (
    Graph,
    MemoryEdgeStream,
    FileEdgeStream,
    ParseError,
    estimate,
    load_edge_list,
    stream_estimate,
    streaming,
    write_edge_list,
)

from conftest import gnp_graph, stream_pairs
from trial_reference import has_edge


def test_load_triangle():
    g = load_edge_list(["0 1", "0 2", "1 2"])
    assert g.n == 3
    assert g.m == 3
    assert list(g.degrees) == [2, 2, 2]


def test_load_drops_duplicates_and_self_loops(caplog):
    with caplog.at_level(logging.WARNING, logger="trisample.graph"):
        g = load_edge_list(["0 1", "1 0", "2 2"])
    assert g.n == 3
    assert g.m == 1
    assert list(g.degrees) == [1, 1, 0]
    messages = " ".join(rec.getMessage() for rec in caplog.records)
    assert "1 self-loop" in messages
    assert "1 duplicate" in messages


def test_load_paw():
    g = load_edge_list(["0 1", "0 2", "1 2", "2 3"])
    assert g.n == 4
    assert g.m == 4
    assert list(g.degrees) == [2, 2, 3, 1]


def test_load_comments_and_header():
    g = load_edge_list(["# a comment", "% another", "# n=6", "0 1"])
    assert g.n == 6
    assert g.m == 1
    assert g.degree(5) == 0


def test_header_must_cover_max_id():
    with pytest.raises(ParseError, match="exceeds declared universe"):
        load_edge_list(["# n=2", "0 5"])


def test_malformed_line_reports_lineno():
    with pytest.raises(ParseError, match="line 2"):
        load_edge_list(["0 1", "1 x"])
    with pytest.raises(ParseError, match="line 1"):
        load_edge_list(["0 1 2"])
    with pytest.raises(ParseError, match="nonnegative"):
        load_edge_list(["0 -1"])


@pytest.mark.parametrize(
    "lines, error_line, message",
    [
        (["1_0 +2"], 1, "non-integer"),  # int() would read 10 and 2
        (["0 1", "\u0663 0"], 2, "non-integer"),  # Arabic-Indic three
        (["0 1", "99999999999999999999 0"], 2, "does not fit in 64 bits"),
        (["9223372036854775808 0"], 1, "does not fit in 64 bits"),  # 2**63
        (["-1 0"], 1, "nonnegative"),
    ],
    ids=["underscore-and-plus", "non-ascii-digit", "twenty-digits", "two-to-the-63", "negative"],
)
def test_vertex_ids_are_ascii_digits_that_fit_int64(tmp_path, lines, error_line, message):
    path = tmp_path / "g.edges"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ParseError, match=f"^line {error_line}: .*{message}"):
        load_edge_list(lines)
    with pytest.raises(ParseError, match=f"^line {error_line}: .*{message}"):
        list(stream_pairs(FileEdgeStream(path)))


def test_header_count_is_ascii_digits():
    # Any other "# n=" line is an ordinary comment.
    assert load_edge_list(["# n=\u0665", "0 1"]).n == 2
    assert load_edge_list(["# n=5", "0 1"]).n == 5


def test_long_vertex_ids_that_fit_int64_are_read():
    from trisample.graph import _edge_records

    lines = ["9223372036854775807 0", "0000000000000000000000001 2"]
    assert list(_edge_records(lines)) == [None, (2**63 - 1, 0), (1, 2)]


def test_empty_input_is_an_error():
    with pytest.raises(ParseError, match="empty input"):
        load_edge_list([])
    with pytest.raises(ParseError, match="empty input"):
        load_edge_list(["# only a comment"])


def test_from_edges_rejects_bad_edges():
    with pytest.raises(ValueError, match="self-loop"):
        Graph.from_edges([(1, 1)])
    with pytest.raises(ValueError, match="duplicate"):
        Graph.from_edges([(0, 1), (1, 0)])
    with pytest.raises(ValueError, match="out of declared range"):
        Graph.from_edges([(0, 3)], n=2)
    with pytest.raises(ValueError, match="nonnegative"):
        Graph.from_edges([(0, 1), (2, -1), (3, 3)])
    with pytest.raises(ValueError, match=r"self-loop \(3,3\)"):
        Graph.from_edges([(0, 1), (3, 3), (2, -1)])


def test_from_edges_accepts_pairs_or_an_array(paw):
    edges = paw.edge_array().tolist()
    assert Graph.from_edges(np.array(edges), n=paw.n) == paw
    assert Graph.from_edges(iter(edges)) == paw
    assert Graph.from_edges(np.zeros((0, 2), dtype=np.int64), n=2).m == 0


def test_vertex_universe_is_capped_so_edge_keys_fit_int64():
    # n * n must fit an int64; the graph is refused before any array of
    # length n is allocated.
    limit = "n=3037000500 vertices exceed the limit of 3037000499"
    with pytest.raises(ValueError, match=limit):
        Graph.from_edges([(0, 1)], n=3_037_000_500)
    with pytest.raises(ValueError, match=limit):
        Graph.from_edges([(0, 3_037_000_499)])
    with pytest.raises(ValueError, match=limit):
        load_edge_list(["3037000499 0"])


def test_edge_array_lists_each_edge_once_in_order(paw):
    edges = paw.edge_array()
    assert edges.dtype == np.int64
    assert edges.tolist() == [[0, 1], [0, 2], [1, 2], [2, 3]]
    assert Graph.from_edges([], n=3).edge_array().shape == (0, 2)


def test_has_edge(paw, k3):
    assert has_edge(k3, 0, 1)
    assert not has_edge(k3, 0, 0)
    assert not has_edge(paw, 0, 3)
    with pytest.raises(IndexError):
        has_edge(paw, 0, 4)


def test_has_edge_symmetric_on_random_graphs():
    rng = np.random.default_rng(7)
    for _ in range(10):
        g = gnp_graph(12, 0.3, rng)
        for i in range(g.n):
            for j in range(g.n):
                assert has_edge(g, i, j) == has_edge(g, j, i)


def test_degree_matches_neighbor_list(paw):
    for i in range(paw.n):
        assert paw.degree(i) == len(paw.neighbors(i))
        assert list(paw.neighbors(i)) == sorted(paw.neighbors(i))
    assert int(paw.degrees.sum()) == 2 * paw.m


def test_serialization_round_trip():
    rng = np.random.default_rng(11)
    for _ in range(20):
        g = gnp_graph(int(rng.integers(2, 25)), 0.4, rng)
        buf = io.StringIO()
        write_edge_list(g, buf)
        text = buf.getvalue()
        if g.m == 0:
            continue  # loader refuses edgeless input by contract
        reloaded = load_edge_list(io.StringIO(text))
        assert reloaded == g


def test_memory_stream_replays_identically():
    edges = [(0, 1), (0, 2), (1, 2), (2, 3)]
    src = MemoryEdgeStream(edges)
    assert list(stream_pairs(src)) == edges
    assert list(stream_pairs(src)) == edges
    assert src.passes == 2
    array = np.array(edges)
    src = MemoryEdgeStream(array)
    array[0] = (5, 6)  # the stream keeps its own copy
    assert list(stream_pairs(src)) == edges
    assert not next(src.blocks(2)).flags.writeable


def test_partial_iteration_does_not_count_a_pass():
    src = MemoryEdgeStream([(0, 1), (1, 2), (2, 3)])
    it = stream_pairs(src)
    next(it)
    del it
    assert src.passes == 0
    list(stream_pairs(src))
    assert src.passes == 1


def test_file_stream_replays_and_reads_header(tmp_path):
    path = tmp_path / "g.edges"
    path.write_text("# n=5\n0 1\n1 2\n")
    src = FileEdgeStream(path)
    assert src.declared_n == 5
    assert list(stream_pairs(src)) == [(0, 1), (1, 2)]
    assert list(stream_pairs(src)) == [(0, 1), (1, 2)]
    assert src.passes == 2


def test_file_stream_without_header(tmp_path):
    path = tmp_path / "g.edges"
    path.write_text("0 1\n1 2\n")
    assert FileEdgeStream(path).declared_n is None


def test_blocks_cut_one_pass_at_every_size(tmp_path):
    edges = [(0, 1), (3, 1), (1, 2), (2, 0), (4, 2)]
    path = tmp_path / "g.edges"
    path.write_text("# n=6\n" + "".join(f"{u} {v}\n" for u, v in edges))
    m = len(edges)
    for src in (MemoryEdgeStream(edges, n=6), FileEdgeStream(path)):
        for size in range(1, m + 2):
            blocks = list(src.blocks(size))
            assert all(b.dtype == np.int64 and b.shape[1] == 2 for b in blocks)
            assert [len(b) for b in blocks] == [min(size, m - lo) for lo in range(0, m, size)]
            assert [tuple(e) for e in np.concatenate(blocks).tolist()] == edges
            assert src.passes == size
            partial = src.blocks(size)
            next(partial)
            del partial  # an abandoned pass does not count
            assert src.passes == size


# Every text below goes through both readers.  Accepted texts (error line
# None) have no self-loops or duplicates, so both readers must see the same
# graph; rejected ones must fail on the same line in both.
READER_PARITY_CASES = {
    "header-first": ("# n=6\n0 1\n1 2\n0 2\n2 3\n", None),
    "header-after-comments": ("# a triangle\n% plus three isolated vertices\n\n# n=6\n0 1\n1 2\n0 2\n", None),
    "no-header": ("0 1\n1 2\n0 2\n2 3\n", None),
    "percent-comments": ("% n=7\n% comment\n0 1\n% between edges\n1 2\n0 2\n3 4\n", None),
    "late-header": ("0 1\n1 2\n0 2\n2 3\n# n=10\n", 5),
    "two-headers": ("# n=5\n# n=10\n0 1\n", 2),
    "malformed-line": ("0 1\n1 x\n", 2),
    "three-tokens": ("# n=4\n0 1\n\n1 2 3\n", 4),
    "negative-id": ("0 1\n1 -2\n", 2),
}


@pytest.mark.parametrize("text, error_line", READER_PARITY_CASES.values(), ids=READER_PARITY_CASES)
def test_file_and_stream_readers_agree(tmp_path, text, error_line):
    path = tmp_path / "g.edges"
    path.write_text(text)
    if error_line is not None:
        with pytest.raises(ParseError, match=f"^line {error_line}:"):
            load_edge_list(path)
        for block in (1, 3, 4096):
            with patch.object(streaming, "_STREAM_BLOCK", block):
                with pytest.raises(ParseError, match=f"^line {error_line}:"):
                    stream_estimate(FileEdgeStream(path), 8, seed=3)
        return
    g = load_edge_list(path)
    stream_edges = sorted((min(u, v), max(u, v)) for u, v in stream_pairs(FileEdgeStream(path)))
    assert stream_edges == [tuple(e) for e in g.edge_array().tolist()]
    for block in (1, 3, 4096):
        with patch.object(streaming, "_STREAM_BLOCK", block):
            for seed in range(5):
                run = stream_estimate(FileEdgeStream(path), 8, seed=seed)
                assert run.state.n == g.n
                assert run.estimate == estimate(g, "qopt-uniform", 8, seed=seed)
