import gc
import math
import tracemalloc
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from trisample import (
    SAMPLER_KINDS,
    Graph,
    TriangleProfile,
    analytics,
    build_sampler,
    chernoff_sample_size,
    count_exact,
    estimator,
    make_plan,
    plan_from_profile,
    variance_closed_form,
    variance_generic,
    variance_report,
)

from conftest import PAW_EDGES, TWO_TRIANGLES_EDGES, chung_lu_graph, gnp_edges, gnp_graph
from trial_reference import reference_p, reference_q
from variance_reference import variance_loop


def _exact_variance(g, prof, kind):
    """The single-trial variance, summed in Fractions over the reference p and q."""
    return variance_loop(prof, reference_p(g, prof, kind), reference_q(g, prof, kind))


def test_variance_examples_on_paw(paw):
    prof = count_exact(paw)
    assert variance_generic(paw, prof, "qopt-uniform", 1) == pytest.approx(1 / 3, rel=1e-12)
    assert variance_generic(paw, prof, "edge-uniform", 1) == pytest.approx(5 / 9, rel=1e-12)
    assert variance_closed_form(paw, prof, "qopt-degree", 1) == pytest.approx(5 / 27, rel=1e-12)
    assert variance_closed_form(paw, prof, "edge-degree", 1) == pytest.approx(1 / 3, rel=1e-12)


def test_variance_zero_on_k3_for_every_kind(k3):
    prof = count_exact(k3)
    for kind in SAMPLER_KINDS:
        assert variance_closed_form(k3, prof, kind, 1) == pytest.approx(0.0, abs=1e-12)
        assert variance_generic(k3, prof, kind, 1) == pytest.approx(0.0, abs=1e-12)


def test_optimal_variance_is_zero(k3, k4, paw):
    for g in (k3, k4, paw):
        prof = count_exact(g)
        assert variance_generic(g, prof, "optimal", 1) == pytest.approx(0.0, abs=1e-12)
        assert variance_closed_form(g, prof, "optimal", 1) == 0.0


def _random_graphs():
    rng = np.random.default_rng(61)
    for _ in range(25):
        yield gnp_graph(int(rng.integers(3, 25)), float(rng.uniform(0.2, 0.5)), rng)


def test_closed_form_agrees_with_generic_on_random_graphs():
    checked = 0
    for g in _random_graphs():
        if g.m == 0:
            continue
        prof = count_exact(g)
        for kind in SAMPLER_KINDS:
            if kind == "optimal" and prof.total == 0:
                continue
            closed = variance_closed_form(g, prof, kind, 1)
            generic = variance_generic(g, prof, kind, 1)
            assert closed == generic == float(_exact_variance(g, prof, kind)), kind
            checked += 1
    assert checked >= 60


def test_closed_forms_round_the_exact_variance_once_on_random_graphs():
    rng = np.random.default_rng(73)
    graphs = [gnp_graph(int(rng.integers(3, 30)), float(rng.uniform(0.2, 0.6)), rng) for _ in range(15)]
    graphs += [chung_lu_graph(int(n), int(3 * n), rng) for n in rng.integers(30, 300, size=10)]
    checked = 0
    for g in graphs:
        prof = count_exact(g)
        if prof.total == 0:
            continue
        for kind in SAMPLER_KINDS:
            var = float(_exact_variance(g, prof, kind))
            for s in (1, 7):
                assert variance_closed_form(g, prof, kind, s) == var / s, (kind, s)
            checked += 1
    assert checked >= 60


def _hub_graph(n: int, p: float, rng: np.random.Generator) -> Graph:
    """G(n, p) plus a hub joined to a quarter of the other vertices."""
    edges = set(gnp_edges(n, p, rng))
    edges |= {(0, int(j)) for j in rng.choice(np.arange(1, n), size=n // 4, replace=False)}
    return Graph.from_edges(sorted(edges), n=n)


def test_array_generic_matches_the_per_pair_loop():
    rng = np.random.default_rng(67)
    graphs = [gnp_graph(int(rng.integers(5, 40)), float(rng.uniform(0.1, 0.5)), rng) for _ in range(12)]
    graphs += [_hub_graph(int(rng.integers(40, 200)), 0.05, rng) for _ in range(4)]
    checked = 0
    for g in graphs:
        prof = count_exact(g)
        if prof.total == 0:
            continue
        for kind in SAMPLER_KINDS:
            want = float(_exact_variance(g, prof, kind))
            for s in (1, 7):
                assert variance_generic(g, prof, kind, s) == want / s, (kind, g)
            checked += 1
    assert checked >= 60


def _support_violations():
    """``(g, profile, kind, pair)``: a profile of K4 or K5 on a graph of fewer edges, and
    the ordered pair that the first zero draw probability, edges in order, is named by."""
    k4 = count_exact(Graph.from_edges(combinations(range(4), 2)))  # every T_ij is 2
    path = Graph.from_edges([(0, 1), (1, 2), (2, 3)])
    triangle = Graph.from_edges([(0, 1), (0, 2), (1, 2)], n=4)
    # the path 0-1-2-3 lacks the counted edge {0,2}, both ways
    yield path, k4, "edge-uniform", "(0,2)"
    yield path, k4, "edge-degree", "(0,2)"
    # vertex 3 is isolated, so p_3 = 0 while p_0 > 0: (0,3) is fine, (3,0) is not
    yield triangle, k4, "qopt-degree", "(3,0)"
    yield triangle, k4, "edge-degree", "(0,3)"
    k5 = count_exact(Graph.from_edges(combinations(range(5), 2)))  # every T_ij is 3
    # vertex 1 is isolated: edge {0,1} fails only as (1,0), the later {1,2} as (1,2);
    # the first failing edge is named, not the first failing (i, j) of any edge
    yield Graph.from_edges(combinations([0, 2, 3, 4], 2), n=5), k5, "qopt-degree", "(1,0)"
    # vertex 4 is isolated: the fourth edge {0,4} is the first to fail, for edge-degree
    # both ways and for qopt-degree as (4,0) only
    k4_and_a_vertex = Graph.from_edges(combinations(range(4), 2), n=5)
    yield k4_and_a_vertex, k5, "edge-degree", "(0,4)"
    yield k4_and_a_vertex, k5, "qopt-degree", "(4,0)"


def _check_the_violation_is_named(g, prof, kind, pair):
    with pytest.raises(ValueError, match="support violation") as want:
        _exact_variance(g, prof, kind)
    with pytest.raises(ValueError, match="support violation") as got:
        variance_generic(g, prof, kind)
    assert str(got.value) == str(want.value)
    assert f"pair {pair} has local count {prof.edge_counts[0]}" in str(got.value), kind


def test_a_zero_probability_on_a_counted_pair_names_the_reference_pair():
    for case in _support_violations():
        _check_the_violation_is_named(*case)


@pytest.mark.parametrize("window", [1, 3, 7])
def test_generic_variance_is_the_same_in_any_window(monkeypatch, window):
    monkeypatch.setattr(analytics, "_WINDOW", window)
    checked = 0
    complete = [Graph.from_edges(combinations(range(n), 2), n=n) for n in range(4, 12)]
    for g in [*_random_graphs(), *complete]:
        if g.m == 0:
            continue
        prof = count_exact(g)
        for kind in SAMPLER_KINDS:
            if kind == "optimal" and prof.total == 0:
                continue
            want = float(_exact_variance(g, prof, kind))
            assert variance_generic(g, prof, kind, 1) == variance_closed_form(g, prof, kind, 1) == want
            checked += 1
    assert checked >= 90


@pytest.mark.parametrize("kind", ["qopt-uniform", "qopt-degree", "edge-uniform", "edge-degree"])
def test_generic_variance_holds_temporaries_of_one_window(monkeypatch, kind):
    window = 1 << 10
    monkeypatch.setattr(analytics, "_WINDOW", window)
    g = chung_lu_graph(2_000, 20_000, np.random.default_rng(41))
    prof = count_exact(g)
    assert np.count_nonzero(prof.edge_counts) >= 4 * window
    g.degrees, prof._upper_keys  # cached on first read: not the sum's temporaries
    gc.collect()
    tracemalloc.start()
    try:
        variance_generic(g, prof, kind)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 15 to 19 words per edge of a window; all 13 000 counted edges at once peak near 1.5 MB.
    assert peak < 32 * 8 * window


@pytest.mark.parametrize("window", [1, 3])
def test_every_window_names_the_first_support_violation(monkeypatch, window):
    # Windows smaller than the profile's edges put some first failing edges past the first
    # window; the edge kinds' cases fail both ways at their first failing edge, in one window.
    monkeypatch.setattr(analytics, "_WINDOW", window)
    beyond = 0  # cases whose first failing edge lies past the first window
    for g, prof, kind, pair in _support_violations():
        _check_the_violation_is_named(g, prof, kind, pair)
        edge = sorted(int(v) for v in pair.strip("()").split(","))
        beyond += prof.edges.tolist().index(edge) >= window
    assert beyond >= 2


@pytest.mark.parametrize("kind", ["qopt-uniform", "qopt-degree", "edge-uniform", "edge-degree"])
def test_closed_forms_are_exactly_zero_on_complete_graphs(kind):
    for n in range(4, 60):
        g = Graph.from_edges(combinations(range(n), 2), n=n)
        prof = count_exact(g)
        assert variance_closed_form(g, prof, kind, 1) == 0.0, n
        assert variance_closed_form(g, prof, kind, 3) == 0.0, n
        assert variance_generic(g, prof, kind, 1) == 0.0, n
        assert variance_generic(g, prof, kind, 3) == 0.0, n


def test_closed_forms_are_exact_beyond_int64_squares():
    g = Graph.from_edges(PAW_EDGES)
    edges = g.edge_array()
    counts = [3_400_000_000, 3_000_000_002, 2_900_000_004, 3_600_000_000]
    twice = [0] * g.n
    for (i, j), c in zip(edges.tolist(), counts):
        twice[i] += c
        twice[j] += c
    tri = [t // 2 for t in twice]
    assert max(tri) > 3_100_000_000  # T_i^2 is beyond int64
    total = sum(tri) // 3
    prof = TriangleProfile(
        total=total,
        per_vertex=np.array(tri, dtype=np.int64),
        edges=edges,
        edge_counts=np.array(counts, dtype=np.int64),
    )
    deg = g.degrees.tolist()
    sq = [0] * g.n  # sum over j of T_ij^2
    for (i, j), c in zip(edges.tolist(), counts):
        sq[i] += c * c
        sq[j] += c * c
    t_sq = Fraction(total * total)
    want = {
        "qopt-uniform": Fraction(g.n, 9) * sum(t * t for t in tri) - t_sq,
        "qopt-degree": Fraction(2 * g.m, 9) * sum(Fraction(t * t, d) for t, d in zip(tri, deg)) - t_sq,
        "edge-uniform": Fraction(g.n, 36) * sum(d * q for d, q in zip(deg, sq)) - t_sq,
        "edge-degree": Fraction(g.m, 18) * sum(sq) - t_sq,
    }
    for kind, var in want.items():
        assert var > 0
        assert variance_closed_form(g, prof, kind, 1) == float(var), kind
        assert variance_closed_form(g, prof, kind, 5) == float(var) / 5, kind
        assert variance_generic(g, prof, kind, 1) == float(var), kind
        assert variance_generic(g, prof, kind, 5) == float(var) / 5, kind


def test_closed_forms_sum_the_same_in_python_ints_as_in_int64(monkeypatch):
    g = chung_lu_graph(2_000, 10_000, np.random.default_rng(67))
    prof = count_exact(g)
    kinds = [k for k in SAMPLER_KINDS if k != "optimal"]
    sums_by_den = estimator._sums_by_den
    fits = []  # for each sum a closed form takes: whether it runs in int64

    def spy(num, den=1):
        fits.append(int(num.max()) <= math.isqrt(estimator._INT64_MAX // len(num)))
        return sums_by_den(num, den)

    monkeypatch.setattr(analytics, "_sums_by_den", spy)
    in_int64 = {(k, s): variance_closed_form(g, prof, k, s) for k in kinds for s in (1, 7)}
    assert len(fits) == len(in_int64) and all(fits)
    fits.clear()
    monkeypatch.setattr(estimator, "_INT64_MAX", 0)  # every sum could overflow: Python ints
    for (k, s), var in in_int64.items():
        assert var > 0
        assert variance_closed_form(g, prof, k, s) == var, (k, s)
    assert len(fits) == len(in_int64) and not any(fits)


def test_variance_scales_inversely_with_s(paw):
    prof = count_exact(paw)
    for kind in SAMPLER_KINDS:
        v1 = variance_closed_form(paw, prof, kind, 1)
        for s in (2, 10, 1000):
            assert variance_closed_form(paw, prof, kind, s) == v1 / s
            assert variance_generic(paw, prof, kind, s) == v1 / s


def test_variance_report_fields(paw):
    prof = count_exact(paw)
    rep = variance_report(paw, prof, "qopt-uniform", 10)
    assert rep.kind == "qopt-uniform"
    assert rep.s == 10
    assert rep.analytical_variance == rep.generic_variance
    assert rep.analytical_variance >= 0.0


def test_closed_form_refuses_the_strategies_build_sampler_refuses(path3):
    edgeless = Graph.from_edges([], n=3)
    empty = Graph.from_edges([], n=0)
    cases = [(path3, "optimal", "triangle-free")]
    cases += [(edgeless, kind, "triangle-free|edgeless") for kind in ("optimal", "qopt-degree", "edge-degree")]
    cases += [(empty, kind, "no vertices") for kind in SAMPLER_KINDS]
    assert len(cases) == 9
    for g, kind, match in cases:
        prof = count_exact(g)
        with pytest.raises(ValueError, match=match):
            build_sampler(g, kind, prof)
        for variance in (variance_closed_form, variance_generic):
            with pytest.raises(ValueError, match=match):
                variance(g, prof, kind)


def test_variance_rejects_unknown_kind(paw):
    prof = count_exact(paw)
    with pytest.raises(ValueError, match="unknown sampler"):
        variance_closed_form(paw, prof, "colorful", 1)


def test_chernoff_sample_size_examples():
    assert chernoff_sample_size(0.1, 1, 1000, 2.0, 1.0) == 2764
    assert chernoff_sample_size(0.1, 1, 1000, 1.0, 1.0) == 1382
    assert chernoff_sample_size(0.2, 1, 1000, 2.0, 1.0) == 691


def test_chernoff_sample_size_is_the_exact_inversion():
    # smallest s with exp(-eps^2 s avg / (2 ub)) <= n^-c
    for eps, c, n, ub, avg in [(0.1, 1.0, 1000, 2.0, 1.0), (0.3, 2.0, 50, 5.0, 1.5)]:
        s = chernoff_sample_size(eps, c, n, ub, avg)
        tail = lambda k: math.exp(-eps * eps * k * avg / (2 * ub))
        assert tail(s) <= n**-c
        if s > 1:
            assert tail(s - 1) > n**-c


def test_chernoff_domain_errors():
    with pytest.raises(ValueError, match="epsilon"):
        chernoff_sample_size(1.0, 1, 100, 2.0, 1.0)
    with pytest.raises(ValueError, match="epsilon"):
        chernoff_sample_size(0.0, 1, 100, 2.0, 1.0)
    with pytest.raises(ValueError, match="triangle-free"):
        chernoff_sample_size(0.1, 1, 100, 2.0, 0.0)
    with pytest.raises(ValueError, match="at least the average"):
        chernoff_sample_size(0.1, 1, 100, 0.5, 1.0)
    with pytest.raises(ValueError, match="exponent"):
        chernoff_sample_size(0.1, 0, 100, 2.0, 1.0)


def test_chernoff_refuses_an_underflowing_epsilon_and_a_non_finite_trial_count():
    with pytest.raises(ValueError, match="squares to 0"):
        chernoff_sample_size(1e-200, 1, 100, 2.0, 1.0)
    for c, upper in [(math.inf, 2.0), (math.nan, 2.0), (1.0, math.inf), (1.0, math.nan), (1e10, 1e308)]:
        with pytest.raises(ValueError, match="not finite"):
            chernoff_sample_size(0.1, c, 100, upper, 1.0)
    assert chernoff_sample_size(1e-100, 1, 100, 2.0, 1.0) == math.ceil(4 * math.log(100) / 1e-200)


def test_chernoff_monotonicity():
    eps_grid = [0.05, 0.1, 0.2, 0.4, 0.8]
    sizes = [chernoff_sample_size(e, 1, 1000, 3.0, 1.0) for e in eps_grid]
    assert sizes == sorted(sizes, reverse=True)
    ratio_grid = [1.0, 1.5, 2.0, 4.0, 10.0]
    sizes = [chernoff_sample_size(0.1, 1, 1000, r, 1.0) for r in ratio_grid]
    assert sizes == sorted(sizes)


def test_plan_from_profile_vertex_and_edge(paw):
    prof = count_exact(paw)
    plan_v = plan_from_profile(paw, prof, 0.1, 1.0, "vertex")
    assert plan_v.upper_bound == 1.0  # max per-vertex count
    assert plan_v.average == pytest.approx(0.25)  # 1 triangle / 4 vertices
    assert plan_v.upper_bound >= plan_v.average
    assert plan_v.s == math.ceil(2 * 1 * (1.0 / 0.25) * math.log(4) / 0.01)
    plan_e = plan_from_profile(paw, prof, 0.1, 1.0, "edge", upper_bound=2.0)
    assert plan_e.average == pytest.approx(0.25)  # 1 triangle / 4 edges
    assert plan_e.upper_bound == 2.0


def test_plan_refuses_an_upper_bound_below_the_oracles(paw):
    prof = count_exact(paw)  # max per vertex 1, max per edge 1
    for bound, name in (("vertex", "max_per_vertex"), ("edge", "max_per_edge")):
        with pytest.raises(ValueError, match=f"upper bound 0.5 is below the oracle's {name} 1"):
            plan_from_profile(paw, prof, 0.1, 1.0, bound, upper_bound=0.5)
        plan = plan_from_profile(paw, prof, 0.1, 1.0, bound, upper_bound=1.0)
        assert plan == plan_from_profile(paw, prof, 0.1, 1.0, bound)


def _two_triangles_profile():
    return count_exact(Graph.from_edges(TWO_TRIANGLES_EDGES, n=7))


def test_closed_form_refuses_another_graphs_profile(paw):
    for kind in SAMPLER_KINDS:
        with pytest.raises(ValueError, match="7 vertices but the graph has 4"):
            variance_closed_form(paw, _two_triangles_profile(), kind)


def test_generic_variance_refuses_another_graphs_profile(paw):
    with pytest.raises(ValueError, match="7 vertices but the graph has 4"):
        variance_generic(paw, _two_triangles_profile(), "edge-degree")


def test_plan_refuses_another_graphs_profile(paw):
    for bound in ("vertex", "edge"):
        with pytest.raises(ValueError, match="7 vertices but the graph has 4"):
            plan_from_profile(paw, _two_triangles_profile(), 0.1, 1.0, bound)


def test_plan_rejects_triangle_free(path3):
    prof = count_exact(path3)
    with pytest.raises(ValueError, match="triangle-free"):
        plan_from_profile(path3, prof, 0.1, 1.0, "vertex")


def test_make_plan_validates_bound_kind():
    with pytest.raises(ValueError, match="bound_kind"):
        make_plan(0.1, 1.0, 100, 2.0, 1.0, "wedge")
