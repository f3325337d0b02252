import gc
import io
import logging
import tracemalloc
import warnings
from functools import cached_property
from unittest.mock import patch

import numpy as np
import pytest

from trisample import (
    Graph,
    MemoryEdgeStream,
    FileEdgeStream,
    ParseError,
    count_exact,
    estimate,
    graph,
    load_edge_list,
    stream_estimate,
    streaming,
    write_edge_list,
)

from conftest import PAW_EDGES, chung_lu_graph, gnp_graph, stream_pairs
from trisample.graph import _plain_pairs
from reader_reference import edge_records
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
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="trisample.graph"):
        g = load_edge_list(["0 1", "1 0", "2 2", "1 2", "0 1", "3 3", "2 1", "1 0"])
    assert g == Graph.from_edges([(0, 1), (1, 2)], n=4)
    messages = " ".join(rec.getMessage() for rec in caplog.records)
    assert "2 self-loop" in messages
    assert "4 duplicate" in messages


def test_load_paw():
    g = load_edge_list(["0 1", "0 2", "1 2", "2 3"])
    assert g.n == 4
    assert g.m == 4
    assert list(g.degrees) == [2, 2, 3, 1]


def test_load_comments_and_header():
    g = load_edge_list(["# a comment", "% another", "# n=6", "0 1"])
    assert g.n == 6
    assert g.m == 1
    assert g.degrees[5] == 0


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


def test_long_vertex_ids_that_fit_int64_are_read(tmp_path):
    lines = ["9223372036854775807 0", "0000000000000000000000001 2"]
    assert list(edge_records(lines)) == [None, (2**63 - 1, 0), (1, 2)]
    # ids below 10**18 take the file reader's array path, larger ones its line path
    ids = [999999999999999999, 100000000000000001, 2**63 - 1, 10**18, 123456789012345678, 7]
    path = tmp_path / "g.edges"
    path.write_text("0 1\n" + "".join(f"{a} {b}\n" for a, b in zip(ids, ids[::-1])))
    for size in (1, 8, 40, 1 << 20):
        with patch.object(graph, "_CHUNK_BYTES", size):
            pairs = np.concatenate(list(FileEdgeStream(path).arrays())).tolist()
        assert pairs == [[0, 1], *map(list, zip(ids, ids[::-1]))]


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


NON_INTEGER_IDS = {
    "floats": ([(0.5, 1.7)], "must be integers"),
    "an-integral-float": ([(0, 1), (1, 2.0)], "must be integers"),
    "numeric-strings": ([("1", "2")], "must be integers"),
    "float-array": (np.array([[0.0, 1.0]]), "must be integers"),
    "uint64-beyond-int64": (np.array([[0, 2**63 + 5]], dtype=np.uint64), "must fit in 64 bits"),
    "python-int-beyond-int64": ([(0, 2**63 + 5)], "must fit in 64 bits"),
    "ragged": ([(0, 1), (1, 2, 3)], r"must be \(u, v\) pairs"),
    "triples": ([(1, 2, 3)], r"must be \(u, v\) pairs"),
}


@pytest.mark.parametrize("edges, message", NON_INTEGER_IDS.values(), ids=NON_INTEGER_IDS)
def test_ids_must_be_integers_that_fit_int64(edges, message):
    with pytest.raises(ValueError, match=message):
        Graph.from_edges(edges)
    with pytest.raises(ValueError, match=message):
        MemoryEdgeStream(edges)


def test_any_integer_ids_are_taken_as_they_are(paw):
    edges = paw.edge_array()
    for same in (
        edges.astype(np.uint64),
        edges.astype(np.int32),
        edges.astype(object),
        [(np.int16(u), int(v)) for u, v in edges.tolist()],
    ):
        assert Graph.from_edges(same) == paw
        assert np.array_equal(np.concatenate(list(MemoryEdgeStream(same).arrays())), edges)


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
    for n in (0, 3):
        empty = Graph.from_edges([], n=n).edge_array()
        assert (empty.shape, empty.dtype) == ((0, 2), np.int64)


def test_repr_names_only_n_and_m():
    assert repr(Graph.from_edges(PAW_EDGES)) == "Graph(n=4, m=4)"


def test_edge_array_holds_no_adjacency_sized_temporaries():
    g = chung_lu_graph(5_000, 50_000, np.random.default_rng(41))
    tracemalloc.start()
    try:
        edges = g.edge_array()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(edges) == g.m > 40_000
    # The result, one m-long index array and one m-long gather at a time,
    # plus a few n-long arrays; a 2m-long row array and mask reach 3x.
    assert peak < 2.5 * edges.nbytes


def _canonical_keys(g):
    """``min * n + max`` of every adjacency entry: each edge in both orientations."""
    rows = np.repeat(np.arange(g.n, dtype=np.int64), g.degrees)
    return np.minimum(rows, g.indices) * g.n + np.maximum(rows, g.indices)


def _filter_cases():
    rng = np.random.default_rng(43)
    yield Graph.from_edges([], n=5)
    yield Graph.from_edges([(3, 1)])
    yield Graph.from_edges([(0, j) for j in range(1, 3000)])  # a star: one hub
    yield gnp_graph(300, 0.05, rng)
    yield chung_lu_graph(2_000, 10_000, rng)
    yield load_edge_list(["5 2", "2 5", "7 7", "0 9", "9 0", "4 2"])  # repeats and a loop


def test_edge_filter_passes_every_edge_in_both_orientations():
    for g in _filter_cases():
        assert g.edge_filter.may_hold(_canonical_keys(g)).all(), g
        assert len(g.edge_filter.table) >= 8 * g.m


def test_edge_filter_passes_keys_near_the_int64_limit():
    n = graph._MAX_N
    rng = np.random.default_rng(47)
    hi = n - 1 - rng.integers(0, 2000, size=1000)
    lo = hi - 1 - rng.integers(0, 2000, size=1000)
    keys = np.unique(lo * n + hi)
    assert keys.min() > 2**63 - 2**44  # every key shares its top 19 bits with 2**63 - 1
    edge_filter = graph.EdgeFilter.of(keys, len(keys))
    assert edge_filter.may_hold(keys).all()
    others = np.setdiff1d(keys - 1, keys)
    assert edge_filter.may_hold(others).mean() <= 0.02


def _slot_and_print(key, bits):
    """The edge filter's slot and fingerprint of a key, from its hash in Python ints."""
    h = key * 0x9E3779B97F4A7C15 % 2**64
    return h >> (64 - bits), (h >> (56 - bits)) & 0xFF | 1


def test_edge_filter_marks_a_slot_shared_only_by_distinct_fingerprints():
    m, bits = 3, 5  # 8 * 3 slots, rounded up to 2**5
    by_slot = {}
    for key in range(1_000):
        slot, fp = _slot_and_print(key, bits)
        by_slot.setdefault(slot, {}).setdefault(fp, key)
    slot, prints = next((slot, prints) for slot, prints in by_slot.items() if len(prints) >= 4)
    a, b, c, d = list(prints.values())[:4]  # four keys of one slot, each with its own fingerprint
    cases = {  # keys -> the one key whose fingerprint the slot holds, or None for 2
        (a,): a,
        (a, a, a): a,  # repeats of one key
        (a, b): None,
        (b, a, b): None,
        (a, b, c): None,
        (c, a, b, c, a): None,
    }
    for keys, held in cases.items():
        shared = held is None
        f = graph.EdgeFilter.of(np.array(keys), m)
        assert len(f.table) == 2**bits
        assert np.flatnonzero(f.table).tolist() == [slot]
        assert f.table[slot] == (2 if shared else _slot_and_print(held, bits)[1]), keys
        assert np.array_equal(graph.EdgeFilter.of(np.array(keys[::-1]), m).table, f.table)
        assert f.may_hold(np.array(keys)).all(), keys
        others = np.array([key for key in (a, b, c, d) if key not in keys])
        assert f.may_hold(others).all() == shared, keys  # a shared slot passes any key


def test_built_graphs_keep_their_keys_and_filter():
    # Built by from_edges, and by load_edge_list from a repeated edge and a self-loop.
    for g in _filter_cases():
        rows = np.repeat(np.arange(g.n), g.degrees)
        keys = rows * g.n + g.indices
        assert np.array_equal(g.edge_keys, keys), g
        assert np.array_equal(g.edge_filter.table, graph.EdgeFilter.of(keys[rows < g.indices], g.m).table), g


def test_forward_runs_are_built_once_and_only_for_the_q_optimal_kinds(monkeypatch):
    builds, build = [], Graph.forward_runs.func

    def counted(g):
        builds.append(g)
        return build(g)

    prop = cached_property(counted)
    prop.__set_name__(Graph, "forward_runs")
    monkeypatch.setattr(Graph, "forward_runs", prop)
    text = io.StringIO()
    write_edge_list(chung_lu_graph(300, 1500, np.random.default_rng(5)), text)
    g = load_edge_list(io.StringIO(text.getvalue()))
    for kind in ("edge-uniform", "edge-degree"):
        estimate(g, kind, 500, seed=1)
    assert builds == [] and "forward_runs" not in vars(g)
    for kind in ("qopt-uniform", "qopt-degree"):
        estimate(g, kind, 500, seed=1)
    assert len(builds) == 1 and builds[0] is g  # once, across both estimates
    estimate(g, "optimal", 500, seed=1, oracle=count_exact(g))
    assert len(builds) == 1  # the oracle reads the index the kernel built
    fresh = load_edge_list(io.StringIO(text.getvalue()))
    assert len(builds) == 1 and "forward_runs" not in vars(fresh)
    count_exact(fresh)
    assert len(builds) == 2 and builds[1] is fresh  # the oracle builds it once
    for kind in ("edge-uniform", "qopt-uniform", "qopt-degree"):
        estimate(fresh, kind, 500, seed=1)
    assert len(builds) == 2


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
        run = paw.indices[paw.indptr[i] : paw.indptr[i + 1]]
        assert paw.degrees[i] == len(run)
        assert (np.diff(run) > 0).all()  # strictly ascending
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
    assert not next(src.arrays()).flags.writeable


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
        held = [len(a) for a in src.arrays()]  # the file's first line is an array of its own
        assert sum(held) == m
        for size in range(1, m + 2):
            with patch.object(streaming, "_STREAM_BLOCK", size):
                blocks = list(streaming._edge_blocks(src))
                assert all(b.dtype == np.int64 and b.shape[1] == 2 for b in blocks)
                cuts = [min(size, k - lo) for k in held for lo in range(0, k, size)]
                assert [len(b) for b in blocks] == cuts
                assert [tuple(e) for e in np.concatenate(blocks).tolist()] == edges
                assert src.passes == size + 1
                partial = streaming._edge_blocks(src)
                next(partial)
                del partial  # an abandoned pass does not count
                assert src.passes == size + 1


def test_file_stream_reads_an_open_binary_file_from_its_start(tmp_path):
    edges = [(0, 1), (3, 1), (1, 2), (2, 0), (4, 2)]
    path = tmp_path / "g.edges"
    path.write_text("# n=6\n" + "".join(f"{u} {v}\n" for u, v in edges))
    by_path = FileEdgeStream(path)
    with open(path, "rb") as fh:
        fh.read(9)  # where the file stands does not matter
        by_file = FileEdgeStream(fh)
        assert by_file.declared_n == by_path.declared_n == 6
        for size in (1, 9, 40, 1 << 20):
            with patch.object(graph, "_CHUNK_BYTES", size):
                for _ in range(2):
                    want = np.concatenate(list(by_path.arrays())).tolist()
                    assert np.concatenate(list(by_file.arrays())).tolist() == want == [list(e) for e in edges]
        assert by_file.passes == by_path.passes == 8
        assert not fh.closed


def test_file_stream_refuses_a_text_mode_file(tmp_path):
    path = tmp_path / "g.edges"
    path.write_text("# n=3\n0 1\n1 2\n")
    with open(path, encoding="utf-8") as fh, pytest.raises(TypeError, match="binary mode"):
        FileEdgeStream(fh)


def test_abandoned_file_passes_close_their_file(tmp_path):
    path = tmp_path / "g.edges"
    path.write_text("# n=3\n0 1\n1 2\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        src = FileEdgeStream(path)
        partial = src.arrays()
        next(partial)
        del partial
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
    assert src.passes == 0


def _plain(chunk):
    """``_plain_pairs`` with its array as a list of pairs."""
    plain = _plain_pairs(chunk)
    return None if plain is None else (plain[0].tolist(), plain[1])


def test_plain_chunks_may_end_their_lines_with_crlf():
    assert _plain(b"1 2\n3 4\n") == ([[1, 2], [3, 4]], 2)
    assert _plain(b"1 2\r\n3 4\r\n") == ([[1, 2], [3, 4]], 2)
    assert _plain(b"1 2\r\n\r\n3\t4 \r\n") == ([[1, 2], [3, 4]], 3)
    assert _plain(b"\r\n1 2\n") == ([[1, 2]], 2)
    assert _plain(b"\n\r\n") == ([], 2)
    # the (pairs, line ends) of a last chunk
    assert _plain(b"\n1 2\n\n3 4") == ([[1, 2], [3, 4]], 3)
    # a lone \r ends a line in text mode, so these take the line path
    assert _plain(b"1 2\r3 4\n") is None
    assert _plain(b"1 2\r\r\n") is None
    assert _plain(b"1 2\n3 4\r") is None
    assert _plain(b"\n1 2\r") is None  # the \n at byte 0 follows no \r


def test_plain_chunks_hold_two_ids_on_each_nonblank_line():
    assert _plain(b"1 2\n3\n") is None
    assert _plain(b"1 2\n3 4 5\n") is None
    assert _plain(b"1 2\n3 4") == ([[1, 2], [3, 4]], 1)  # ids after the last \n
    assert _plain(b"3 4\n5") is None
    assert _plain(b"\n\n \t\n") == ([], 3)
    assert _plain(b"0 1\n") == ([[0, 1]], 1)  # an id at byte 0
    assert _plain(b"1 2\n\r") is None  # a \r as the last byte
    # plain ids are below 10**18, whatever their number of digits
    assert _plain(b"0999999999999999999 1\n") == ([[10**18 - 1, 1]], 1)
    assert _plain(b"1000000000000000000 1\n") is None
    assert _plain(b"1 99999999999999999999999\n") is None


@pytest.mark.parametrize("end", ["\n", "\r\n"])
def test_plain_files_take_the_line_path_only_up_to_their_first_edge(tmp_path, end):
    edges = np.random.default_rng(5).integers(0, 10**5, size=(300, 2)).tolist()
    lines = ["0 1", *(f"{a}\t{b}" for a, b in edges)]
    want = load_edge_list(lines)
    path = tmp_path / "g.edges"
    path.write_bytes("".join(line + end for line in lines).encode())
    first = f"0 1{end}".encode()
    size = (path.stat().st_size - len(first)) // 3 + 1  # three chunks after the first line
    with (
        patch.object(graph, "_CHUNK_BYTES", size),
        patch.object(graph, "_plain_pairs", wraps=graph._plain_pairs) as plain,
        patch.object(graph, "_text_lines", wraps=graph._text_lines) as text_lines,
    ):
        assert load_edge_list(path) == want
    assert plain.call_count == 3
    assert [c.args for c in text_lines.call_args_list] == [(first,)]


# Every text below goes through both readers.  Accepted texts (expect None)
# have no self-loops or duplicates, so both readers must see the same graph.
# Otherwise ``expect`` is the line of the ParseError both readers raise, the
# exception type both raise, or EMPTY: no edge records, which
# load_edge_list refuses and a stream reads as an empty pass.
EMPTY = "empty"
READER_PARITY_CASES = {
    "header-first": ("# n=6\n0 1\n1 2\n0 2\n2 3\n", None),
    "header-after-comments": ("# a triangle\n% plus three isolated vertices\n\n# n=6\n0 1\n1 2\n0 2\n", None),
    "no-header": ("0 1\n1 2\n0 2\n2 3\n", None),
    "percent-comments": ("% n=7\n% comment\n0 1\n% between edges\n1 2\n0 2\n3 4\n", None),
    "late-header": ("0 1\n1 2\n0 2\n2 3\n# n=10\n", 5),
    "two-headers": ("# n=5\n# n=10\n0 1\n", 2),
    "edge-then-header-split-by-cr": ("0 1\r# n=5\n1 2\n", 2),
    "two-headers-split-by-cr": ("# n=5\r# n=6\r0 1\n", 2),
    "malformed-line": ("0 1\n1 x\n", 2),
    "three-tokens": ("# n=4\n0 1\n\n1 2 3\n", 4),
    "negative-id": ("0 1\n1 -2\n", 2),
    "crlf": ("# n=6\r\n0 1\r\n1 2\r\n\r\n0 2\r\n2 3\r\n", None),
    "lone-cr": ("# n=5\r0 1\r1 2\n0 2\r\r2 3\n3 4\r", None),
    "lone-cr-then-malformed": ("0 1\n1 2\r0 2\n1 x\n", 4),
    "tabs": ("0\t1\n\t1 \t2\t\n\n0\t\t2\n", None),
    "unicode-whitespace": ("0 1\n1\x0b2\n0\x0c2\n2\xa03\n3\u20034\n1\u30003\n", None),
    "line-separators-are-whitespace": ("0 1\n1\x1c2\n0\x852\n2\u20283\n", None),
    "eighteen-digit-ids": ("# n=4\n000000000000000000 000000000000000001\n000000000000000001 2\n", None),
    "nineteen-digit-ids": ("# n=4\n0 1\n0000000000000000001 2\n3 0000000000000000002\n", None),
    "zero-padded-ids": ("00 01\n0000000000000000000000001 2\n002 0\n", None),
    "big-ids": ("# n=5\n0 1\n999999999999999999 0\n", ParseError),
    "nineteen-digits-beyond-int64": ("0 1\n1 2\n9999999999999999999 0\n", 3),
    "utf8-bom": ("\ufeff0 1\n1 2\n", 1),
    "no-final-newline": ("0 1\n1 2\n0 2\n2 3", None),
    "header-only": ("# n=5\n", EMPTY),
    "late-header-after-plain-lines": ("# n=12\n0 1\n1 2\n0 2\n2 3\n3 4\n4 5\n5 6\n# n=12\n6 7\n", 9),
    "malformed-after-plain-lines": ("# n=12\n0 1\n1 2\n0 2\n2 3\n3 4\n4 5\n5 6\n6 7 8\n", 9),
    "invalid-utf8-after-plain-lines": (b"0 1\n1 2\n0 2\n2 3\n3 4\n4 5\n5 \xff6\n", UnicodeDecodeError),
}


def _edge_file(tmp_path, data):
    path = tmp_path / "g.edges"
    path.write_bytes(data if isinstance(data, bytes) else data.encode("utf-8"))
    return path


def _raises(expect):
    if isinstance(expect, int):
        return pytest.raises(ParseError, match=f"^line {expect}:")
    return pytest.raises(expect)


@pytest.mark.parametrize("text, expect", READER_PARITY_CASES.values(), ids=READER_PARITY_CASES)
def test_file_and_stream_readers_agree(tmp_path, text, expect):
    path = _edge_file(tmp_path, text)
    if expect is EMPTY:
        with pytest.raises(ParseError, match="empty input"):
            load_edge_list(path)
        assert list(stream_pairs(FileEdgeStream(path))) == []
        return
    if expect is not None:
        with _raises(expect):
            load_edge_list(path)
        if expect is ParseError:  # a load-only check, such as the declared universe
            return
        for block in (1, 3, 4096):
            with patch.object(streaming, "_STREAM_BLOCK", block):
                with _raises(expect):
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


def _outcome(read):
    """What ``read()`` returns, or the type and message of what it raises.
    A decoding error is compared by type: its byte offsets count from
    wherever the reader's buffer began."""
    try:
        return read()
    except UnicodeDecodeError:
        return UnicodeDecodeError
    except ValueError as exc:
        return type(exc), str(exc)


def _stream_read(source):
    """A file stream's header count and its whole pass as a list of pairs."""
    edges = np.concatenate([np.empty((0, 2), dtype=np.int64), *source.arrays()])
    return source.declared_n, edges.tolist()


def _load_records(declared_n, edges):
    """What :func:`load_edge_list` makes of the records of a text with no
    self-loops or repeated edges, as every parity text is."""
    if not edges:
        raise ParseError("empty input: no edge records")
    max_id = max(max(e) for e in edges)
    n = max_id + 1 if declared_n is None else declared_n
    if max_id >= n:
        raise ParseError(f"vertex id {max_id} exceeds declared universe n={n}")
    return Graph.from_edges(edges, n=n)


@pytest.mark.parametrize("text, expect", READER_PARITY_CASES.values(), ids=READER_PARITY_CASES)
def test_every_chunk_cut_reads_as_the_line_reader(tmp_path, text, expect):
    path = _edge_file(tmp_path, text)

    def by_lines():  # a text-mode read through the line grammar
        with open(path, encoding="utf-8") as fh:
            records = edge_records(fh)
            declared_n = next(records)
            return declared_n, [list(e) for e in records]

    def load_by_lines():
        with open(path, encoding="utf-8") as fh:
            return load_edge_list(fh)

    want_graph, want_stream = _outcome(lambda: _load_records(*by_lines())), _outcome(by_lines)
    assert (want_graph is UnicodeDecodeError) == (expect is UnicodeDecodeError)
    assert _outcome(load_by_lines) == want_graph
    for size in range(1, path.stat().st_size + 1):
        with patch.object(graph, "_CHUNK_BYTES", size):
            assert _outcome(lambda: load_edge_list(path)) == want_graph, size
            assert _outcome(lambda: _stream_read(FileEdgeStream(path))) == want_stream, size


@pytest.mark.parametrize("text, expect", READER_PARITY_CASES.values(), ids=READER_PARITY_CASES)
def test_an_open_binary_file_loads_as_its_path(tmp_path, text, expect):
    path = _edge_file(tmp_path, text)

    def load_open_file():
        with open(path, "rb") as fh:
            return load_edge_list(fh)

    assert _outcome(load_open_file) == _outcome(lambda: load_edge_list(path))


@pytest.mark.parametrize("text, expect", READER_PARITY_CASES.values(), ids=READER_PARITY_CASES)
def test_a_text_source_loads_as_its_path(tmp_path, text, expect):
    path = _edge_file(tmp_path, text)

    def load_text_file(newline):
        with open(path, encoding="utf-8", newline=newline) as fh:
            return load_edge_list(fh)

    want = _outcome(lambda: load_edge_list(path))
    assert _outcome(lambda: load_text_file(None)) == want
    assert _outcome(lambda: load_text_file("")) == want
    if isinstance(text, str):  # invalid UTF-8 has no text; a text-mode read raises at decoding
        assert _outcome(lambda: load_edge_list(io.StringIO(text))) == want


def test_a_list_item_is_one_line_or_the_lines_it_holds():
    triangle = Graph.from_edges([(0, 1), (1, 2), (0, 2)])
    assert load_edge_list(["0 1\n1 2", "0 2"]) == triangle
    assert load_edge_list(["0 1\r\n", "1 2\r", "", "0 2\n"]) == triangle
    with pytest.raises(ParseError, match="^line 1: expected two vertex ids, got 1 tokens"):
        load_edge_list(["0\r1"])  # a lone \r ends a line, as in a file
    with pytest.raises(ParseError, match="^line 3: non-integer vertex id"):
        load_edge_list(["0 1", "# a comment\n1 x"])


@pytest.mark.parametrize("read", [io.StringIO, str.splitlines], ids=["text-file", "lines"])
def test_plain_text_sources_are_parsed_as_arrays(read):
    edges = np.random.default_rng(6).integers(0, 10**5, size=(300, 2)).tolist()
    text = "0 1\n" + "".join(f"{a} {b}\n" for a, b in edges)
    want = load_edge_list(io.BytesIO(text.encode()))
    with (
        patch.object(graph, "_plain_pairs", wraps=graph._plain_pairs) as plain,
        patch.object(graph, "_text_lines", wraps=graph._text_lines) as text_lines,
    ):
        assert load_edge_list(read(text)) == want
    assert plain.call_count == 1
    assert [c.args for c in text_lines.call_args_list] == [(b"0 1\n",)]  # the line before the first edge


# Inputs with two faults at once: the error named first is pinned, so that
# the order in which the graph builders check their input stays as it is.
FROM_EDGES_FIRST_FAULT = {
    "duplicate-then-out-of-range": ([(0, 1), (1, 0), (0, 5)], 3, "duplicate"),
    "out-of-range-then-duplicate": ([(0, 5), (1, 0), (0, 1)], 3, "duplicate"),
    "out-of-range-whose-key-collides": ([(0, 2), (1, 0)], 2, "out of declared range"),
    "duplicate-far-out-of-range": ([(0, 2**62), (2**62, 0)], 3, "duplicate"),
    "self-loop-then-negative": ([(1, 1), (0, -1)], None, r"self-loop \(1,1\)"),
    "negative-then-self-loop": ([(0, -1), (1, 1)], None, "nonnegative"),
    "self-loop-out-of-range": ([(0, 1), (5, 5)], 3, r"self-loop \(5,5\)"),
    "cap-and-duplicate": ([(0, 1), (1, 0)], 3_037_000_500, "exceed the limit"),
    "cap-by-max-id-and-duplicate": ([(0, 3_037_000_499), (3_037_000_499, 0)], None, "exceed the limit"),
    "cap-and-out-of-range": ([(0, 2**62)], 3_037_000_500, "exceed the limit"),
}


@pytest.mark.parametrize("edges, n, message", FROM_EDGES_FIRST_FAULT.values(), ids=FROM_EDGES_FIRST_FAULT)
def test_from_edges_names_the_first_of_two_faults(edges, n, message):
    with pytest.raises(ValueError, match=message):
        Graph.from_edges(edges, n=n)
    with pytest.raises(ValueError, match=message):
        Graph.from_edges(np.array(edges, dtype=np.int64), n=n)


LOAD_FIRST_FAULT = {
    "duplicate-and-out-of-range": (["# n=3", "0 1", "1 0", "0 5"], ParseError, "vertex id 5 exceeds declared universe n=3"),
    "self-loop-and-negative": (["1 1", "0 -1"], ParseError, "^line 2: vertex ids must be nonnegative"),
    "negative-and-self-loop": (["0 -1", "1 1"], ParseError, "^line 1: vertex ids must be nonnegative"),
    "cap-by-max-id-and-duplicate": (["3037000499 0", "0 3037000499"], ValueError, "n=3037000500 vertices exceed the limit"),
    "cap-by-header-and-duplicate": (["# n=3037000500", "0 1", "1 0"], ValueError, "n=3037000500 vertices exceed the limit"),
    "cap-by-header-and-out-of-range": (["# n=3037000500", "0 3037000500"], ParseError, "exceeds declared universe"),
}


@pytest.mark.parametrize("lines, error, message", LOAD_FIRST_FAULT.values(), ids=LOAD_FIRST_FAULT)
def test_load_names_the_first_of_two_faults(tmp_path, lines, error, message):
    path = tmp_path / "g.edges"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    for source in (lines, path):
        with pytest.raises(error, match=message) as caught:
            load_edge_list(source)
        assert type(caught.value) is error
