import math
from fractions import Fraction

import numpy as np
import pytest

from trisample import (
    Graph,
    SAMPLER_KINDS,
    build_sampler,
    count_exact,
    estimate,
    seed_streams,
)
from trisample import samplers
from trisample.samplers import _Q_OPTIMAL_KINDS, draw_vertices, second_stage

from conftest import TWO_TRIANGLES_EDGES, gnp_graph
from trial_reference import _first_stage_weights, draw, draw_given_i, exact_trial_value
from variance_reference import variance_loop


def test_optimal_probabilities_on_k3(k3):
    spec = build_sampler(k3, "optimal", count_exact(k3))
    assert [spec.p(i) for i in range(3)] == pytest.approx([1 / 3] * 3)
    for i in range(3):
        for j in range(3):
            expected = 0.0 if i == j else 0.5
            assert spec.q(i, j) == pytest.approx(expected)


def test_qopt_uniform_probabilities_on_paw(paw):
    spec = build_sampler(paw, "qopt-uniform")
    assert [spec.p(i) for i in range(4)] == pytest.approx([0.25] * 4)
    assert spec.q(2, 0) == pytest.approx(0.5)
    assert spec.q(2, 1) == pytest.approx(0.5)
    assert spec.q(2, 3) == 0.0
    assert spec.q(3, 2) == 0.0  # degenerate first stage reports all-zero q


def test_edge_degree_probabilities_on_paw(paw):
    spec = build_sampler(paw, "edge-degree")
    assert [spec.p(i) for i in range(4)] == pytest.approx([2 / 8, 2 / 8, 3 / 8, 1 / 8])
    assert spec.q(2, 0) == pytest.approx(1 / 3)
    assert spec.q(0, 3) == 0.0


def test_build_errors(path3):
    with pytest.raises(ValueError, match="undefined on a triangle-free"):
        build_sampler(path3, "optimal", count_exact(path3))
    with pytest.raises(ValueError, match="requires the exact"):
        build_sampler(path3, "optimal")
    edgeless = Graph.from_edges([], n=3)
    for kind in ("edge-degree", "qopt-degree"):
        with pytest.raises(ValueError, match="edgeless"):
            build_sampler(edgeless, kind)
    with pytest.raises(ValueError, match="unknown sampler"):
        build_sampler(path3, "doulion")


@pytest.mark.parametrize("kind", SAMPLER_KINDS)
def test_build_refuses_another_graphs_profile(paw, kind):
    other = count_exact(Graph.from_edges(TWO_TRIANGLES_EDGES, n=7))
    with pytest.raises(ValueError, match="7 vertices but the graph has 4"):
        build_sampler(paw, kind, other)


@pytest.mark.parametrize("kind", SAMPLER_KINDS)
def test_a_graph_without_vertices_is_refused(kind):
    empty = Graph.from_edges([])
    with pytest.raises(ValueError, match=f"^{kind} sampling is undefined on a graph with no vertices"):
        build_sampler(empty, kind, count_exact(empty))
    with pytest.raises(ValueError, match="no vertices"):
        estimate(empty, kind, 3)


def _reachable(spec, i):
    return spec.p(i) > 0.0


def test_probabilities_sum_to_one():
    rng = np.random.default_rng(31)
    for _ in range(15):
        n = int(rng.integers(3, 20))
        g = gnp_graph(n, 0.35, rng)
        if g.m == 0:
            continue
        prof = count_exact(g)
        for kind in SAMPLER_KINDS:
            if kind == "optimal" and prof.total == 0:
                continue
            spec = build_sampler(g, kind, prof if kind == "optimal" else None)
            assert math.isclose(sum(spec.p(i) for i in range(n)), 1.0, abs_tol=1e-12)
            for i in range(n):
                if not _reachable(spec, i):
                    continue
                total_q = sum(spec.q(i, j) for j in range(n) if j != i)
                degenerate = all(spec.q(i, j) == 0.0 for j in range(n))
                if degenerate:
                    continue
                assert math.isclose(total_q, 1.0, abs_tol=1e-12), (kind, i)


def test_support_covers_all_triangle_pairs():
    rng = np.random.default_rng(37)
    for _ in range(15):
        g = gnp_graph(int(rng.integers(3, 20)), 0.4, rng)
        if g.m == 0:
            continue
        prof = count_exact(g)
        for kind in SAMPLER_KINDS:
            if kind == "optimal" and prof.total == 0:
                continue
            spec = build_sampler(g, kind, prof if kind == "optimal" else None)
            for (i, j), c in prof.per_edge.items():
                if c == 0:
                    continue
                assert spec.p(i) * spec.q(i, j) > 0.0
                assert spec.p(j) * spec.q(j, i) > 0.0


def test_array_accessors_match_the_scalar_ones():
    rng = np.random.default_rng(43)
    for _ in range(6):
        n = int(rng.integers(3, 16))
        g = gnp_graph(n, 0.4, rng)
        prof = count_exact(g)
        a, b = (x.ravel() for x in np.meshgrid(np.arange(n), np.arange(n), indexing="ij"))
        shuffle = rng.permutation(len(a))  # pairs out of key order
        a, b = a[shuffle], b[shuffle]
        for kind in SAMPLER_KINDS:
            for oracle in (prof, None):
                if kind == "optimal" and (oracle is None or prof.total == 0):
                    continue
                spec = build_sampler(g, kind, oracle)
                assert spec.q_of(a, b).tolist() == [spec.q(i, j) for i, j in zip(a.tolist(), b.tolist())]
                for bad in ([0], [n]), ([-1], [0]):
                    with pytest.raises(IndexError):
                        spec.q_of(*map(np.array, bad))
                p = spec.p_of(a)
                assert np.broadcast_to(p, a.shape).tolist() == [spec.p(i) for i in a.tolist()]


@pytest.mark.parametrize("kind", SAMPLER_KINDS)
def test_accessors_refuse_ids_outside_the_graph(paw, kind):
    spec = build_sampler(paw, kind, count_exact(paw))
    for bad in (-1, paw.n):
        with pytest.raises(IndexError, match=r"^vertex ids out of range \[0,4\)$"):
            spec.p_of(np.array([0, bad]))
        with pytest.raises(IndexError, match=r"^vertex ids out of range \[0,4\)$"):
            spec.p(bad)


@pytest.mark.parametrize("kind", SAMPLER_KINDS)
def test_accessors_refuse_ids_beyond_int64(paw, kind):
    # numpy holds such ids as Python ints in an object array; they are
    # integers outside [0, n) like any other.
    spec = build_sampler(paw, kind, count_exact(paw))
    calls = (
        lambda: spec.p(1 << 70),
        lambda: spec.p(-(1 << 70)),
        lambda: spec.q(0, 1 << 70),
        lambda: spec.p_of(np.array([0, 1 << 64])),
        lambda: spec.p_of(np.array([(1 << 64) - 1])),  # a uint64 array
    )
    for call in calls:
        with pytest.raises(IndexError, match=r"^vertex ids out of range \[0,4\)$"):
            call()
    assert spec.p_of(np.array([1, 2], dtype=object)).tolist() == spec.p_of(np.array([1, 2])).tolist()


@pytest.mark.parametrize("kind", SAMPLER_KINDS)
def test_accessors_refuse_ids_that_are_not_integers(paw, kind):
    for oracle in (count_exact(paw), None):
        if kind == "optimal" and oracle is None:
            continue
        spec = build_sampler(paw, kind, oracle)
        calls = (
            lambda: spec.p(1.7),
            lambda: spec.q(1.9, 2.2),
            lambda: spec.q(1, 2.0),
            lambda: spec.p_of(np.array([0.0, 1.5])),
            lambda: spec.q_of(np.array([1]), np.array([2.5])),
            lambda: spec.q_of(np.array(["1"]), np.array([2])),
        )
        for call in calls:
            with pytest.raises(ValueError, match="^vertex ids must be integers$"):
                call()
        assert spec.p(1) == spec.p_of(np.array([1], dtype=np.uint8))[0]
        assert spec.p_of(np.array([])).shape == (0,)
        assert spec.q_of(np.array([]), np.array([])).shape == (0,)


def test_qopt_q_matches_oracle_exactly():
    rng = np.random.default_rng(41)
    g = gnp_graph(18, 0.35, rng)
    prof = count_exact(g)
    spec = build_sampler(g, "qopt-uniform")  # on-the-fly second stage
    for i in range(g.n):
        d_i = int(prof.per_vertex[i])
        if d_i == 0:
            continue
        for j in g.neighbors(i):
            assert spec.q(i, int(j)) == prof.edge_count(i, int(j)) / (2 * d_i)


@pytest.mark.parametrize("kind", ["qopt-uniform", "qopt-degree"])
def test_qopt_q_counts_the_profile_once(monkeypatch, kind):
    calls = []

    def counting(g):
        calls.append(g)
        return count_exact(g)

    monkeypatch.setattr(samplers, "count_exact", counting)
    g = gnp_graph(18, 0.35, np.random.default_rng(47))
    prof = count_exact(g)
    rows = np.repeat(np.arange(g.n), g.degrees)
    want = [
        prof.edge_count(i, j) / (2 * prof.per_vertex[i]) if prof.per_vertex[i] else 0.0
        for i, j in zip(rows.tolist(), g.indices.tolist())
    ]
    spec = build_sampler(g, kind)
    assert calls == []  # nothing is counted until q is asked for
    for _ in range(3):
        assert spec.q_of(rows, g.indices).tolist() == want
        assert [spec.q(i, j) for i, j in zip(rows.tolist(), g.indices.tolist())] == want
    assert calls == [g]
    given = build_sampler(g, kind, prof)  # the oracle passed in is read as it is
    assert given.q_of(rows, g.indices).tolist() == want
    assert calls == [g]


def test_draw_examples(paw, k4):
    rng = np.random.default_rng(3)
    edge_spec = build_sampler(paw, "edge-uniform")
    d = draw_given_i(edge_spec, 3, rng)
    assert (d.j, d.q_j_given_i, d.degenerate) == (2, 1.0, False)

    qopt_spec = build_sampler(paw, "qopt-uniform")
    d = draw_given_i(qopt_spec, 3, rng)
    assert d.degenerate and d.j is None and d.q_j_given_i == 0.0

    prof = count_exact(k4)
    opt_spec = build_sampler(k4, "optimal", prof)
    streams = seed_streams(9)
    for _ in range(20):
        d = draw(opt_spec, streams)
        assert d.j in [int(x) for x in k4.neighbors(d.i)]
        assert d.p_i == pytest.approx(1 / 4)
        assert d.q_j_given_i == pytest.approx(1 / 3)


def test_degenerate_draws_skip_second_stage(paw):
    spec = build_sampler(paw, "edge-uniform")
    g_before = np.random.default_rng(0)
    state0 = g_before.bit_generator.state
    edgeless_vertex_spec = build_sampler(Graph.from_edges([(0, 1)], n=3), "edge-uniform")
    d = draw_given_i(edgeless_vertex_spec, 2, g_before)
    assert d.degenerate
    assert g_before.bit_generator.state == state0  # no variate consumed


def _record_partners(monkeypatch):
    """The j of every trial the engine counts T_ij for, batch by batch: the
    edge kinds pass them to ``common_neighbour_counts``."""
    partners, count = [], samplers.common_neighbour_counts

    def recording(g, a, b):
        partners.append(np.array(b))
        return count(g, a, b)

    monkeypatch.setattr(samplers, "common_neighbour_counts", recording)
    return partners


@pytest.mark.parametrize("kind", SAMPLER_KINDS)
def test_second_stage_draws_the_reference_pairs(monkeypatch, kind):
    partners = _record_partners(monkeypatch)
    rng = np.random.default_rng(43)
    for _ in range(5):
        g = gnp_graph(int(rng.integers(6, 25)), 0.3, rng)
        prof = count_exact(g)
        if g.m == 0 or (kind == "optimal" and prof.total == 0):
            continue
        spec = build_sampler(g, kind, prof if kind == "optimal" else None)
        weights = _first_stage_weights(spec) or [1] * g.n
        terms = second_stage(spec)
        streams, ref = seed_streams(7), seed_streams(7)
        for size in (1, 9, 40):  # several batches of one run
            partners.clear()
            vertices = draw_vertices(spec, streams.vertices, size)
            live, num, den = terms(vertices, streams.pairs)
            want = [draw(spec, ref) for _ in range(size)]
            kept = [d for d in want if not d.degenerate]
            assert vertices.tolist() == [d.i for d in want]
            assert live.tolist() == [not d.degenerate for d in want]
            den = np.broadcast_to(den, num.shape)
            # Each trial is worth (W / 6) * num / den.
            got = [Fraction(int(a), int(b)) for a, b in zip(num, den)]
            assert got == [exact_trial_value(spec, d) * 6 / spec._p_total for d in kept]
            if kind in ("edge-uniform", "edge-degree"):
                j = np.concatenate(partners)
                assert j.tolist() == [d.j for d in kept]
                local = [prof.edge_count(d.i, d.j) for d in kept]
                if kind == "edge-uniform":
                    assert num.tolist() == [t * d.q_total for t, d in zip(local, kept)]
                else:
                    assert num.tolist() == local
            else:
                # Worth 2 T_i / w_i whatever j the reference drew: its q_total is 2 T_i.
                assert partners == []
                assert got == [Fraction(d.q_total, weights[d.i]) for d in kept]


def _frequency_check(spec, g, draws, seed, partners):
    # One batch of the engine's draws; a degenerate trial counts as (i, None).
    # The q-optimal kinds draw no j, so only their first stage and their
    # degenerate trials are counted; their q is pinned exactly by
    # test_qopt_q_matches_oracle_exactly and the variance tests.
    streams = seed_streams(seed)
    vertices = draw_vertices(spec, streams.vertices, draws)
    partners.clear()
    live, _, _ = second_stage(spec)(vertices, streams.pairs)
    pairs_drawn = spec.kind not in _Q_OPTIMAL_KINDS
    drawn = np.full(draws, g.n)  # g.n stands for None, or for an undrawn j
    if pairs_drawn:
        drawn[live] = np.concatenate(partners)
    keys, counts = np.unique(vertices * (g.n + 1) + drawn, return_counts=True)
    firsts, seconds = np.divmod(keys, g.n + 1)
    pair_counts = {
        (i, None if j == g.n else j): c
        for i, j, c in zip(firsts.tolist(), seconds.tolist(), counts.tolist())
    }
    for i in range(g.n):
        p_i = spec.p(i)
        q = [spec.q(i, j) for j in range(g.n)]
        degenerate = not any(q)
        assert (live[vertices == i] != degenerate).all(), i
        outcomes = list(enumerate(q)) + [(None, float(degenerate))] if pairs_drawn else [(None, 1.0)]
        for j, q_j in outcomes:
            prob = p_i * q_j
            observed = pair_counts.get((i, j), 0)
            sigma = math.sqrt(draws * prob * (1.0 - prob))
            assert abs(observed - draws * prob) <= 4.0 * sigma + 1e-9, (i, j)


def test_empirical_frequencies_match_accessors(monkeypatch, paw):
    partners = _record_partners(monkeypatch)
    prof = count_exact(paw)
    sizes = {"qopt-degree": 1_000_000, "edge-uniform": 1_000_000}
    for seed, kind in enumerate(SAMPLER_KINDS):
        spec = build_sampler(paw, kind, prof if kind == "optimal" else None)
        _frequency_check(spec, paw, sizes.get(kind, 200_000), seed, partners)


def test_qopt_second_stage_beats_perturbed_alternatives(paw):
    prof = count_exact(paw)
    spec = build_sampler(paw, "qopt-uniform")
    best = variance_loop(prof, spec.p, spec.q)
    rng = np.random.default_rng(13)
    support = {
        i: [j for j in range(paw.n) if prof.edge_count(i, j) > 0]
        for i in range(paw.n)
        if prof.per_vertex[i] > 0
    }
    for _ in range(50):
        table = np.zeros((paw.n, paw.n))
        for i, js in support.items():
            table[i, js] = rng.dirichlet(np.ones(len(js)))

        def q_alt(i, j, table=table):
            return float(table[i, j])

        alt = variance_loop(prof, spec.p, q_alt)
        assert best <= alt + 1e-12
