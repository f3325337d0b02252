import tracemalloc
from math import comb

import numpy as np
import pytest

from trisample import count_exact, exact

from conftest import (
    PAW_EDGES,
    brute_force_local_counts,
    brute_force_triangles,
    chung_lu_graph,
    gnp_edges,
    gnp_graph,
    hub_graph,
)
from trisample import Graph
from oracle_reference import count_exact_reference
from trial_reference import local_edge_count, neighbours


def test_k3_profile(k3):
    prof = count_exact(k3)
    assert prof.total == 1
    assert list(prof.per_vertex) == [1, 1, 1]
    assert all(c == 1 for c in prof.per_edge.values())


def test_k4_profile(k4):
    prof = count_exact(k4)
    assert prof.total == 4
    assert list(prof.per_vertex) == [3, 3, 3, 3]
    assert all(c == 2 for c in prof.per_edge.values())


def test_small_graphs_are_cross_checked_by_triple_enumeration(monkeypatch, k4):
    find = exact._find_edges

    def one_short(g, keys, probe):
        wedge, at = find(g, keys, probe)
        return wedge[1:], at[1:]  # one closed wedge, so one whole triangle, lost

    monkeypatch.setattr(exact, "_find_edges", one_short)
    assert count_exact.__wrapped__(k4).total == 3  # even and a multiple of 3 at every step
    with pytest.raises(AssertionError, match="triple enumeration"):
        count_exact(k4)


def test_paw_profile_matches_brute_force(paw):
    expected_vertex, expected_edge = brute_force_local_counts(4, PAW_EDGES)
    prof = count_exact(paw)
    assert prof.total == brute_force_triangles(4, PAW_EDGES) == 1
    assert list(prof.per_vertex) == expected_vertex == [1, 1, 1, 0]
    assert prof.per_edge == expected_edge
    assert prof.edge_counts_of([2, 3, 1], [3, 2, 0]).tolist() == [0, 0, 1]
    assert prof.edge_counts_of([-1, 0], [5, 6]).tolist() == [0, 0]  # the keys of (0, 1) and (1, 2)


def test_edge_counts_refuse_ids_that_are_not_integers(paw):
    prof = count_exact(paw)
    for a, b in (([0.7], [1.2]), (["0"], ["1"]), ([0], [1.0]), ([0.0], [1]), ([1 << 70], [0.5])):
        with pytest.raises(ValueError, match="vertex ids must be integers"):
            prof.edge_counts_of(a, b)


def test_edge_counts_are_zero_for_integer_ids_outside_the_graph(paw):
    prof = count_exact(paw)
    huge = [1 << 70, 1, -(1 << 70), 1 << 63], [1, 1 << 70, 0, 1 << 64]
    assert prof.edge_counts_of(*huge).tolist() == [0] * 4
    got = prof.edge_counts_of([1 << 70, 0, -1, 4, 1], [1, 1, 0, 0, np.int64(0)])
    assert got.tolist() == [0, 1, 0, 0, 1]
    assert prof.edge_counts_of([np.int64(1), 1 << 70], [0, 1]).tolist() == [1, 0]
    wide = np.array([2**64 - 1, 0], dtype=np.uint64)  # 2^64 - 1 is -1 as an int64
    assert prof.edge_counts_of(wide, np.array([0, 1])).tolist() == [0, 1]


def test_local_edge_count(k4, paw):
    assert local_edge_count(k4, 0, 1) == 2
    assert local_edge_count(paw, 2, 3) == 0
    assert local_edge_count(paw, 0, 3) == 0  # non-edge
    assert local_edge_count(paw, 3, 0) == 0
    with pytest.raises(ValueError):
        local_edge_count(paw, 1, 1)
    with pytest.raises(IndexError):
        local_edge_count(paw, 0, 9)


def test_profile_identities_on_random_graphs():
    rng = np.random.default_rng(5)
    for _ in range(40):
        n = int(rng.integers(2, 30))
        g = gnp_graph(n, float(rng.uniform(0.2, 0.5)), rng)
        prof = count_exact(g)
        assert 3 * prof.total == int(prof.per_vertex.sum())
        rows = np.repeat(np.arange(n), g.degrees)
        incident = np.bincount(rows, prof.edge_counts_of(rows, g.indices), minlength=n)
        assert incident.tolist() == (2 * prof.per_vertex).tolist()
        assert all(c >= 0 for c in prof.per_edge.values())


def test_total_matches_independent_enumeration():
    rng = np.random.default_rng(17)
    for _ in range(30):
        n = int(rng.integers(3, 30))
        edges = gnp_edges(n, float(rng.uniform(0.2, 0.5)), rng)
        g = Graph.from_edges(edges, n=n)
        assert count_exact(g).total == brute_force_triangles(n, edges)


def test_per_edge_matches_independent_counts():
    rng = np.random.default_rng(23)
    for _ in range(10):
        n = int(rng.integers(3, 20))
        edges = gnp_edges(n, 0.4, rng)
        g = Graph.from_edges(edges, n=n)
        expected_vertex, expected_edge = brute_force_local_counts(n, edges)
        prof = count_exact(g)
        assert list(prof.per_vertex) == expected_vertex
        assert prof.per_edge == expected_edge


def test_blocks_and_gather_windows_split_the_edges(monkeypatch):
    monkeypatch.setattr(exact, "_GATHER", 5)
    for block in (1, 2, 5):
        monkeypatch.setattr(exact, "_WEDGE_BLOCK", block)
        rng = np.random.default_rng(41)
        for _ in range(12):
            n = int(rng.integers(4, 25))
            size = n + int(rng.integers(1, 6))  # isolated vertices among the ids
            ids = rng.permutation(size)[:n].tolist()
            edges = [(ids[u], ids[v]) for u, v in gnp_edges(n, 0.4, rng)]
            expected_vertex, expected_edge = brute_force_local_counts(size, edges)
            prof = count_exact(Graph.from_edges(edges, n=size))
            assert list(prof.per_vertex) == expected_vertex
            assert prof.per_edge == expected_edge
            assert list(prof.per_edge) == sorted(expected_edge)


def _assert_same_profile(prof, want):
    assert prof.total == want.total
    for name in ("per_vertex", "edges", "edge_counts"):
        got, expected = getattr(prof, name), getattr(want, name)
        assert got.dtype == expected.dtype == np.int64, name
        assert np.array_equal(got, expected), name


def _oracle_cases():
    rng = np.random.default_rng(71)
    for _ in range(30):
        yield gnp_graph(int(rng.integers(2, 60)), float(rng.uniform(0.02, 0.9)), rng)
    yield chung_lu_graph(400, 2000, rng)
    yield hub_graph(300, 0.02, 120, rng)
    for n in range(3, 13):
        yield Graph.from_edges([(i, j) for i in range(n) for j in range(i + 1, n)], n=n)  # K_n
    yield Graph.from_edges([(0, j) for j in range(1, 30)], n=30)  # a star
    yield Graph.from_edges([(i, j) for i in range(5) for j in range(5, 12)], n=12)  # K_{5,7}
    yield Graph.from_edges([], n=9)
    yield Graph.from_edges([(3, 40), (40, 77), (3, 77), (77, 90), (12, 90)], n=100)  # sparse ids


def test_profile_matches_the_per_edge_reference():
    for g in _oracle_cases():
        _assert_same_profile(count_exact(g), count_exact_reference(g))


def _forward_wedges(g):
    """C(d+(u), 2) per vertex u, edges pointing away from the lower (degree, id) end."""
    out, deg = [0] * g.n, g.degrees.tolist()
    for i, j in g.edge_array().tolist():
        out[min((deg[i], i), (deg[j], j))[1]] += 1
    return [comb(d, 2) for d in out]


def test_a_hub_source_spans_several_wedge_blocks(monkeypatch):
    # A hub joined to every vertex of K_40, each of which also has a leaf:
    # the hub has the lowest degree among its neighbours, so all 780 of
    # its wedges are forward, and all close.
    k = 40
    edges = [(0, j) for j in range(1, k + 1)]
    edges += [(i, j) for i in range(1, k + 1) for j in range(i + 1, k + 1)]
    edges += [(j, k + j) for j in range(1, k + 1)]
    g = Graph.from_edges(edges, n=2 * k + 1)
    assert _forward_wedges(g)[0] == comb(k, 2)
    want = count_exact_reference(g)
    assert want.total == comb(k + 1, 3) and want.per_vertex[0] == comb(k, 2)
    for block in (7, 100, 250):  # the hub's run spans at least 4 blocks
        monkeypatch.setattr(exact, "_WEDGE_BLOCK", block)
        _assert_same_profile(count_exact(g), want)


def test_argsort_fallback_gives_the_same_profile(monkeypatch):
    graphs = list(_oracle_cases())
    want = [count_exact(g) for g in graphs]
    monkeypatch.setattr(exact, "_packs", lambda span, bits: False)
    monkeypatch.setattr(exact, "_WEDGE_BLOCK", 50)
    for g, expected in zip(graphs, want):
        _assert_same_profile(count_exact(g), expected)


def test_wedge_blocks_bound_the_working_memory():
    g = gnp_graph(400, 0.3, np.random.default_rng(7))
    wedges = sum(_forward_wedges(g))
    assert wedges >= 50 * exact._WEDGE_BLOCK
    count_exact(g)
    tracemalloc.start()
    try:
        count_exact(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * wedges  # one int64 array over every wedge would reach it alone


@pytest.mark.parametrize("window", [1, 2, 3, 7, 100])
def test_gathered_runs_put_every_run_back_together(window):
    rng = np.random.default_rng(29)
    for case in range(60):
        count = int(rng.integers(0, 25))
        first = rng.integers(0, 50, count)
        lengths = rng.integers(0, 6, count) * (rng.random(count) < 0.6)  # many empty runs
        if case % 3 == 0:
            lengths[:2] = lengths[-2:] = 0  # empty runs at the start and the end
        last = first + lengths
        pieces = [[] for _ in range(count)]
        sizes = []
        for runs, positions in exact._gathered_runs(first, last, window):
            assert len(runs) == len(positions) <= window
            assert np.all(np.diff(runs) >= 0) and np.all((0 <= runs) & (runs < count))
            for r, position in zip(runs.tolist(), positions.tolist()):
                pieces[r].append(position)
            sizes.append(len(positions))
        assert pieces == [list(range(a, b)) for a, b in zip(first.tolist(), last.tolist())]
        assert all(size == window for size in sizes[:-1]) and sum(sizes) == lengths.sum()
        assert np.array_equal(last, first + lengths)  # the arguments are read, not written


@pytest.mark.parametrize("gather", [3, 50, exact._GATHER])
def test_common_neighbour_counts_match_set_intersections(monkeypatch, gather):
    monkeypatch.setattr(exact, "_GATHER", gather)
    rng = np.random.default_rng(53)
    for base in (gnp_graph(120, 0.1, rng), chung_lu_graph(400, 2000, rng), hub_graph(200, 0.05, 150, rng)):
        g = Graph.from_edges(base.edge_array(), n=base.n + 3)  # the last three ids isolated
        runs = [set(neighbours(g, v)) for v in range(g.n)]
        rows = np.repeat(np.arange(g.n), g.degrees)
        # Every edge, then any pairs, isolated vertices at either end included.
        a = np.concatenate([rows, rng.integers(0, g.n, 500), [g.n - 1, 0, g.n - 2]])
        b = np.concatenate([g.indices, rng.integers(0, g.n, 500), [0, g.n - 1, g.n - 2]])
        want = [len(runs[i] & runs[j]) for i, j in zip(a.tolist(), b.tolist())]
        assert exact.common_neighbour_counts(g, a, b).tolist() == want


def test_edge_filter_passes_few_non_edges():
    # G(n, m): about 20 000 distinct random pairs on 2 000 vertices.
    rng = np.random.default_rng(59)
    n = 2_000
    keys = np.unique(rng.integers(0, n, size=(40_000, 2)) @ [n, 1])
    lo, hi = np.divmod(rng.permutation(keys[keys // n < keys % n])[:20_000], n)
    g = Graph.from_edges(np.stack([lo, hi], axis=1), n=n)
    a, b = rng.integers(0, n, size=(2, 200_000))
    probe = np.minimum(a, b) * n + np.maximum(a, b)
    probe = probe[(a != b) & ~np.isin(probe, lo * n + hi)]
    assert len(probe) > 190_000
    assert g.edge_filter.may_hold(probe).mean() <= 0.02  # about 0.3% for a random hash


def test_per_vertex_matches_networkx_with_a_hub():
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(59)
    n = 600
    edges = set(gnp_edges(n, 0.02, rng))
    edges |= {(0, int(j)) for j in rng.choice(np.arange(1, n), size=n // 4, replace=False)}
    g = Graph.from_edges(sorted(edges), n=n)
    assert g.degrees[0] >= n // 4
    reference = nx.Graph()
    reference.add_nodes_from(range(n))
    reference.add_edges_from(edges)
    expected = nx.triangles(reference)
    prof = count_exact(g)
    assert prof.per_vertex.tolist() == [expected[v] for v in range(n)]
    assert 3 * prof.total == sum(expected.values())


def _check_local_triangles(g, vertices):
    """local_triangles over ``vertices`` equals the oracle's T_v, in their order."""
    vertices = np.asarray(vertices, dtype=np.int64)
    got = exact.local_triangles(g, vertices)
    assert got.dtype == np.int64
    assert got.tolist() == count_exact(g).per_vertex[vertices].tolist()


def _loads(g):
    """Entries in the neighbours' forward runs of each vertex, Σ deg⁺(j):
    what the kernel gathers for it."""
    indptr, _ = g.forward_runs
    return np.array([int(np.diff(indptr)[neighbours(g, v)].sum()) for v in range(g.n)])


def _parity_cases(seed):
    rng = np.random.default_rng(seed)
    yield gnp_graph(200, 0.05, rng)
    yield chung_lu_graph(400, 2000, rng)


def test_local_counts_cut_rounds_at_64_vertices():
    for g in _parity_cases(61):
        loads = _loads(g)
        assert (loads > 0).sum() > 2 * exact._ROUND and loads.sum() <= exact._GATHER  # cut at 64 only
        _check_local_triangles(g, np.arange(g.n))
        _check_local_triangles(g, np.random.default_rng(62).permutation(g.n))


@pytest.mark.parametrize("gather", [64, 500])
def test_local_counts_cut_rounds_by_gathered_entries(monkeypatch, gather):
    monkeypatch.setattr(exact, "_GATHER", gather)
    graphs = list(_parity_cases(67))
    for g in graphs:
        assert _loads(g).sum() > gather * (g.n // exact._ROUND + 1)  # more rounds than 64s
        _check_local_triangles(g, np.arange(g.n))
    assert any(_loads(g).max() > gather for g in graphs)  # a vertex whose load makes a round alone


def test_light_rounds_bound_the_working_memory(monkeypatch):
    monkeypatch.setattr(exact, "_GATHER", 1 << 12)
    g = gnp_graph(2000, 0.01, np.random.default_rng(7))
    loads = _loads(g)
    assert loads.sum() >= 50 * exact._GATHER and loads.max() <= exact._GATHER  # shared rounds only
    vertices = np.arange(g.n)
    exact.local_triangles(g, vertices)  # builds the forward runs
    tracemalloc.start()
    try:
        exact.local_triangles(g, vertices)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * loads.sum()  # one int64 array over every gathered entry would reach it alone


def test_local_counts_of_hubs_beside_light_vertices(monkeypatch):
    # Forward loads stay below the default window on a graph this small.
    monkeypatch.setattr(exact, "_GATHER", 1000)
    g = chung_lu_graph(600, 6000, np.random.default_rng(3))
    loads = _loads(g)
    assert 0 < (loads > exact._GATHER).sum() < g.n // 10 and loads.max() > 2 * exact._GATHER
    _check_local_triangles(g, np.arange(g.n))
    # Hubs and light vertices interleaved, in any order, over several calls.
    order = np.random.default_rng(4).permutation(g.n)
    for part in np.array_split(order, 3):
        assert (loads[part] > exact._GATHER).any() and (loads[part] <= exact._GATHER).any()
        _check_local_triangles(g, part)


def test_a_vertex_above_the_window_counts_alone_in_bounded_memory(monkeypatch):
    # Vertex 0 joined to every vertex of a G(400, 0.5): its load, about
    # 4e4, far exceeds n and its degree, so its round walks many windows.
    monkeypatch.setattr(exact, "_GATHER", 1 << 10)
    base = gnp_graph(400, 0.5, np.random.default_rng(11))
    g = Graph.from_edges(np.concatenate([[(0, j) for j in range(1, 401)], base.edge_array() + 1]), n=401)
    load = _loads(g)[0]
    assert load > 30 * exact._GATHER and load > 50 * g.n
    _check_local_triangles(g, np.arange(g.n))
    tracemalloc.start()
    try:
        exact.local_triangles(g, [0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * load  # one int64 array over its gathered entries would reach it alone


def test_local_counts_with_isolated_and_triangle_free_vertices():
    # A triangle, a pendant path off it and a 4-cycle: T_v = 0 at most
    # vertices.  Vertices 9 to 11 are isolated.
    edges = [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (5, 6), (6, 7), (7, 8), (8, 5)]
    g = Graph.from_edges(edges, n=12)
    _check_local_triangles(g, np.arange(g.n))
    _check_local_triangles(g, [10, 11])
    _check_local_triangles(g, [3, 11, 0, 6])
    _check_local_triangles(g, [])
