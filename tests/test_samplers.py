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

from conftest import PAW_EDGES, TWO_TRIANGLES_EDGES, gnp_graph
from trial_reference import (
    _first_stage_weights,
    draw,
    draw_given_i,
    exact_trial_value,
    local_edge_count,
    neighbours,
    reference_p,
    reference_q,
)
from variance_reference import variance_loop


def _spec_pq(spec):
    """The spec's own p_i, its integer weight over their sum, and q_{j|i}, the x / y_a of
    ``_q_ratio`` (0 where x is), as Fractions: a list and an n x n table.  The same call's
    x / y_b, q_{a|b}, must give the same table."""
    n = spec.graph.n
    weights = [1] * n if spec._p_weights is None else spec._p_weights.tolist()
    a, b = np.divmod(np.random.default_rng(n).permutation(n * n), n)  # pairs out of key order
    x, y_a, y_b = spec._q_ratio(a, b)
    q = [[Fraction(0)] * n for _ in range(n)]
    back = [[Fraction(0)] * n for _ in range(n)]  # q_{a|b}, from the x of (a, b)
    for i, j, num, y_i, y_j in zip(a.tolist(), b.tolist(), x.tolist(), y_a.tolist(), y_b.tolist()):
        if num:
            q[i][j], back[j][i] = Fraction(num, y_i), Fraction(num, y_j)
    assert back == q
    return [Fraction(w, spec._p_total) for w in weights], q


def test_optimal_probabilities_on_k3(k3):
    p, q = _spec_pq(build_sampler(k3, "optimal", count_exact(k3)))
    assert p == [Fraction(1, 3)] * 3
    assert q == [[0 if i == j else Fraction(1, 2) for j in range(3)] for i in range(3)]


def test_qopt_uniform_probabilities_on_paw(paw):
    p, q = _spec_pq(build_sampler(paw, "qopt-uniform", count_exact(paw)))
    assert p == [Fraction(1, 4)] * 4
    assert q[2] == [Fraction(1, 2), Fraction(1, 2), 0, 0]
    assert q[3] == [0] * 4  # degenerate first stage reports all-zero q


def test_edge_degree_probabilities_on_paw(paw):
    p, q = _spec_pq(build_sampler(paw, "edge-degree"))
    assert p == [Fraction(2, 8), Fraction(2, 8), Fraction(3, 8), Fraction(1, 8)]
    assert q[2] == [Fraction(1, 3), Fraction(1, 3), 0, Fraction(1, 3)]
    assert q[0][3] == 0


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
            p, q = _spec_pq(build_sampler(g, kind, prof))
            assert sum(p) == 1
            for i in range(n):
                assert sum(q[i]) in (0, 1), (kind, i)  # 0 for a degenerate i


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
            p, q = _spec_pq(build_sampler(g, kind, prof))
            for (i, j), c in prof.per_edge.items():
                if c == 0:
                    continue
                assert p[i] * q[i][j] > 0
                assert p[j] * q[j][i] > 0


def test_q_ratio_equals_the_reference_q(paw, k4):
    # Every ordered pair: edges, non-edges, i = j, and first stages that are
    # degenerate (vertex 3 of the paw for qopt, the isolated vertices for all).
    rng = np.random.default_rng(43)
    graphs = [paw, k4, Graph.from_edges(PAW_EDGES, n=6)]
    graphs += [gnp_graph(int(rng.integers(3, 16)), 0.4, rng) for _ in range(6)]
    for g in graphs:
        prof = count_exact(g)
        for kind in SAMPLER_KINDS:
            if kind == "optimal" and prof.total == 0:
                continue
            p, q = _spec_pq(build_sampler(g, kind, prof))
            want = reference_q(g, prof, kind)
            assert q == [[want(i, j) for j in range(g.n)] for i in range(g.n)], kind
            assert p == reference_p(g, prof, kind), kind


def test_qopt_q_matches_oracle_exactly():
    # x / y_a and x / y_b of the oracle's lookups against T_ij counted by set intersection and
    # 2 T_i, on every edge, both ways.
    g = gnp_graph(18, 0.35, np.random.default_rng(41))
    prof = count_exact(g)
    rows = np.repeat(np.arange(g.n), g.degrees)
    x, y_a, y_b = build_sampler(g, "qopt-uniform", prof)._q_ratio(rows, g.indices)
    assert x.tolist() == [local_edge_count(g, i, j) for i, j in zip(rows.tolist(), g.indices.tolist())]
    assert y_a.tolist() == (2 * prof.per_vertex[rows]).tolist()
    assert y_b.tolist() == (2 * prof.per_vertex[g.indices]).tolist()


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
        assert d.j in neighbours(k4, d.i)
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
                local = [local_edge_count(g, d.i, d.j) for d in kept]
                if kind == "edge-uniform":
                    assert num.tolist() == [t * d.q_total for t, d in zip(local, kept)]
                else:
                    assert num.tolist() == local
            else:
                # Worth 2 T_i / w_i whatever j the reference drew: its q_total is 2 T_i.
                assert partners == []
                assert got == [Fraction(d.q_total, weights[d.i]) for d in kept]


def _frequency_check(spec, prof, draws, seed, partners):
    # One batch of the engine's draws; a degenerate trial counts as (i, None).
    # The q-optimal kinds draw no j, so only their first stage and their
    # degenerate trials are counted; their q is pinned exactly by
    # test_q_ratio_equals_the_reference_q and the variance tests.
    g = spec.graph
    p, q = reference_p(g, prof, spec.kind), reference_q(g, prof, spec.kind)
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
        q_i = [float(q(i, j)) for j in range(g.n)]
        degenerate = not any(q_i)
        assert (live[vertices == i] != degenerate).all(), i
        outcomes = list(enumerate(q_i)) + [(None, float(degenerate))] if pairs_drawn else [(None, 1.0)]
        for j, q_j in outcomes:
            prob = float(p[i]) * q_j
            observed = pair_counts.get((i, j), 0)
            sigma = math.sqrt(draws * prob * (1.0 - prob))
            assert abs(observed - draws * prob) <= 4.0 * sigma + 1e-9, (i, j)


def test_empirical_frequencies_match_accessors(monkeypatch, paw):
    partners = _record_partners(monkeypatch)
    prof = count_exact(paw)
    sizes = {"qopt-degree": 1_000_000, "edge-uniform": 1_000_000}
    for seed, kind in enumerate(SAMPLER_KINDS):
        spec = build_sampler(paw, kind, prof if kind == "optimal" else None)
        _frequency_check(spec, prof, sizes.get(kind, 200_000), seed, partners)


def test_qopt_second_stage_beats_perturbed_alternatives(paw):
    prof = count_exact(paw)
    p, q = reference_p(paw, prof, "qopt-uniform"), reference_q(paw, prof, "qopt-uniform")
    best = variance_loop(prof, p, q)
    rng = np.random.default_rng(13)
    support = {i: [j for j in range(paw.n) if q(i, j)] for i in range(paw.n) if prof.per_vertex[i] > 0}
    for _ in range(50):
        table = np.zeros((paw.n, paw.n))
        for i, js in support.items():
            table[i, js] = rng.dirichlet(np.ones(len(js)))

        def q_alt(i, j, table=table):
            return float(table[i, j])

        alt = variance_loop(prof, p, q_alt)
        assert best <= alt + 1e-12
