import math
from fractions import Fraction

import numpy as np
import pytest

import trisample.estimator
import trisample.exact
import trisample.samplers
from trisample import (
    SAMPLER_KINDS,
    Graph,
    build_sampler,
    count_exact,
    estimate,
    run_trials,
    seed_streams,
    variance_closed_form,
)
from trisample.estimator import Moments, finalize_estimate, fold_trials
from trisample.samplers import draw_vertices

from conftest import PAW_EDGES, TWO_TRIANGLES_EDGES, gnp_graph, hub_graph, without_pairs_draws
from trial_reference import TrialDraw, draw, enumerated_expectation, exact_trial_value, neighbours, trial_value


def test_trial_value_optimal_is_always_truth(k4):
    prof = count_exact(k4)
    spec = build_sampler(k4, "optimal", prof)
    streams = seed_streams(2)
    for _ in range(50):
        assert trial_value(k4, draw(spec, streams)) == pytest.approx(4.0, rel=1e-12)


def test_trial_value_degenerate_is_zero(paw):
    d = TrialDraw(i=3, j=None, p_i=0.25, q_j_given_i=0.0, degenerate=True)
    assert trial_value(paw, d) == 0.0


def test_trial_value_edge_degree_on_k3(k3):
    spec = build_sampler(k3, "edge-degree")
    streams = seed_streams(4)
    for _ in range(20):
        assert trial_value(k3, draw(spec, streams)) == pytest.approx(1.0)


def test_trial_value_rejects_unreachable_positive_count(k3):
    bad = TrialDraw(i=0, j=1, p_i=0.0, q_j_given_i=0.0)
    with pytest.raises(RuntimeError, match="support contract"):
        trial_value(k3, bad)


def test_estimate_on_triangle_free_is_zero(path3):
    for kind in SAMPLER_KINDS:
        if kind == "optimal":
            continue
        assert estimate(path3, kind, 200, seed=5).value == 0.0


def test_estimate_optimal_is_exact(k4):
    est = estimate(k4, "optimal", 5, seed=123)
    assert est.value == 4.0
    assert est.empirical_variance == 0.0
    # Every optimal trial is worth T; a float product 6 p q would miss it
    # by an ulp on most of these graphs.
    rng = np.random.default_rng(19)
    for _ in range(4):
        g = gnp_graph(40, 0.3, rng)
        prof = count_exact(g)
        est = estimate(g, "optimal", 300, seed=1, oracle=prof)
        assert (est.value, est.sum_beta, est.empirical_variance) == (prof.total, 300 * prof.total, 0.0)


def test_estimate_paw_within_variance_band(paw):
    s = 100_000
    est = estimate(paw, "qopt-uniform", s, seed=1)
    sigma = math.sqrt(1.0 / (3 * s))
    assert abs(est.value - 1.0) <= 3 * sigma


def test_estimate_is_deterministic(paw):
    a = estimate(paw, "edge-degree", 500, seed=77)
    b = estimate(paw, "edge-degree", 500, seed=77)
    assert a == b
    c = estimate(paw, "edge-degree", 500, seed=78)
    assert a != c


def test_estimate_invariants(paw):
    est = estimate(paw, "qopt-degree", 999, seed=3)
    assert est.value == est.sum_beta / est.trials
    assert est.empirical_variance >= 0.0
    assert est.trials == 999


def test_keep_trials_reproduces_moments(paw):
    est = estimate(paw, "edge-uniform", 2000, seed=9, keep_trials=True)
    vals = est.trial_values
    assert vals is not None and vals.shape == (2000,)
    assert est.sum_beta == pytest.approx(float(vals.sum()), rel=1e-12)
    assert est.empirical_variance == pytest.approx(
        float(np.var(vals, ddof=1)) / 2000, rel=1e-9
    )
    baseline = estimate(paw, "edge-uniform", 2000, seed=9)
    assert baseline == est  # retained values do not enter equality


def test_requires_at_least_one_trial(paw):
    with pytest.raises(ValueError):
        estimate(paw, "edge-uniform", 0, seed=1)


def test_run_trials_without_trials_is_a_clear_error(paw):
    with pytest.raises(ValueError, match="no trials"):
        run_trials(build_sampler(paw, "edge-uniform"), 0, seed=1)


def test_unbiasedness_by_support_enumeration():
    rng = np.random.default_rng(53)
    checked = 0
    for _ in range(20):
        g = gnp_graph(int(rng.integers(4, 16)), 0.4, rng)
        if g.m == 0:
            continue
        prof = count_exact(g)
        for kind in SAMPLER_KINDS:
            if kind == "optimal" and prof.total == 0:
                continue
            expectation = enumerated_expectation(g, prof, kind)
            assert expectation == pytest.approx(prof.total, rel=1e-9, abs=1e-9)
            checked += 1
    assert checked >= 50


def test_single_trial_variance_matches_analytics(paw):
    prof = count_exact(paw)
    s = 200_000
    for kind in ("qopt-uniform", "edge-degree"):
        est = estimate(paw, kind, s, seed=11, keep_trials=True)
        sample_var = float(np.var(est.trial_values, ddof=1))
        analytical = variance_closed_form(paw, prof, kind, 1)
        assert sample_var == pytest.approx(analytical, rel=0.05)


def _per_trial_reference(spec, s, seed):
    """The one-trial-at-a-time loop that the batched engine replaced.

    Sums ``exact_trial_value(spec, draw(spec, streams))`` over ``s`` draws
    as Fractions and returns the fields of the Estimate they give, each
    rounded once, plus the trial values.
    """
    streams = seed_streams(seed)
    values, degenerate = [], 0
    for _ in range(s):
        d = draw(spec, streams)
        values.append(exact_trial_value(spec, d))
        degenerate += d.degenerate
    total, sum_sq = sum(values, Fraction(0)), sum(v * v for v in values)
    variance = (sum_sq - total * total / s) / (s - 1) / s if s > 1 else 0
    values = list(map(float, values))
    return float(total) / s, float(total), float(sum_sq), float(variance), degenerate, values


def _parity_graphs():
    rng = np.random.default_rng(71)
    star = [(0, k) for k in range(1, 13)] + [(1, 2)]  # one triangle, many T_i = 0 leaves
    yield "paw", Graph.from_edges(PAW_EDGES)
    yield "star", Graph.from_edges(star, n=16)  # plus three isolated vertices
    yield "triangle-free", Graph.from_edges([(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)], n=7)
    for t in range(3):
        g = gnp_graph(int(rng.integers(8, 30)), 0.3, rng)
        yield f"gnp{t}", Graph.from_edges(g.edge_array(), n=g.n + 2)


@pytest.mark.parametrize("kind", SAMPLER_KINDS)
def test_run_trials_matches_the_per_trial_loop(monkeypatch, kind):
    chunk = 37
    # Small chunks and gather windows put many boundaries inside each run.
    monkeypatch.setattr(trisample.estimator, "_CHUNK", chunk)
    monkeypatch.setattr(trisample.exact, "_GATHER", 5)
    checked = 0
    for name, g in _parity_graphs():
        prof = count_exact(g)
        if kind == "optimal" and prof.total == 0:
            continue
        spec = build_sampler(g, kind, prof if kind == "optimal" else None)
        for s in (1, chunk - 1, chunk, chunk + 1, 2 * chunk + 20):
            seed = 1000 * s + checked
            est = run_trials(spec, s, seed, keep_trials=True)
            value, sum_beta, sum_sq, variance, degenerate, values = _per_trial_reference(spec, s, seed)
            assert est.value == value, (name, s)
            assert est.sum_beta == sum_beta, (name, s)
            assert est.sum_beta_sq == sum_sq, (name, s)
            assert est.empirical_variance == variance, (name, s)
            assert est.degenerate_trials == degenerate, (name, s)
            assert est.trial_values.tolist() == values, (name, s)
            checked += 1
    assert checked >= 25


def test_run_trials_matches_the_per_trial_loop_across_a_full_chunk(paw):
    s = trisample.estimator._CHUNK + 1
    for kind in ("qopt-degree", "edge-uniform"):
        est = run_trials(build_sampler(paw, kind), s, 4, keep_trials=True)
        value, _, sum_sq, _, degenerate, values = _per_trial_reference(build_sampler(paw, kind), s, 4)
        assert (est.value, est.sum_beta_sq, est.degenerate_trials) == (value, sum_sq, degenerate)
        assert est.trial_values.tolist() == values


# The window the tests below run at: vertex 0's forward load, Σ deg⁺(j)
# over its neighbours, is above it on this graph, and no other's is.
_SPEC_GATHER = 1024


@pytest.fixture(scope="module")
def hub_spec_graph():
    g = hub_graph(300, 0.06, 250, np.random.default_rng(83))
    indptr, _ = g.forward_runs
    loads = np.array([int(np.diff(indptr)[neighbours(g, v)].sum()) for v in range(g.n)])
    assert loads[0] > 2 * _SPEC_GATHER and _SPEC_GATHER >= loads[1:].max()  # the hub walks windows alone
    return g, count_exact(g)


@pytest.mark.parametrize("kind", ["optimal", "qopt-uniform", "qopt-degree"])
@pytest.mark.parametrize("s", [1, 37, 5000])
def test_run_trials_matches_the_per_trial_loop_with_a_hub_and_full_rounds(
    monkeypatch, hub_spec_graph, kind, s
):
    g, prof = hub_spec_graph
    monkeypatch.setattr(trisample.exact, "_GATHER", _SPEC_GATHER)
    spec = build_sampler(g, kind, prof if kind == "optimal" else None)
    kernel, given = trisample.samplers.local_triangles, []

    def recording(graph, vertices):
        given.append(np.array(vertices))
        return kernel(graph, vertices)

    monkeypatch.setattr(trisample.samplers, "local_triangles", recording)
    seed = 11 + s
    est = run_trials(spec, s, seed, keep_trials=True)
    value, sum_beta, sum_sq, variance, degenerate, values = _per_trial_reference(spec, s, seed)
    assert (est.value, est.sum_beta, est.sum_beta_sq) == (value, sum_beta, sum_sq)
    assert (est.empirical_variance, est.degenerate_trials) == (variance, degenerate)
    assert est.trial_values.tolist() == values
    if kind == "optimal":  # every trial is worth 2 W / 6: nothing to count
        assert given == []
        return
    # Each distinct first-stage vertex is counted once per run.
    drawn = draw_vertices(spec, seed_streams(seed).vertices, s)
    assert sorted(np.concatenate(given).tolist()) == np.unique(drawn).tolist()
    if s == 5000:
        assert len(given[0]) > 2 * trisample.exact._ROUND and 0 in drawn


@pytest.mark.parametrize("kind", SAMPLER_KINDS)
def test_chunking_does_not_change_the_estimate(monkeypatch, kind):
    # The sums are exact integers, so no chunk size can move a bit.
    rng = np.random.default_rng(29)
    graphs = [Graph.from_edges(PAW_EDGES), gnp_graph(30, 0.3, rng), hub_graph(120, 0.08, 60, rng)]
    for g in graphs:
        prof = count_exact(g)
        spec = build_sampler(g, kind, prof if kind == "optimal" else None)
        results = []
        for chunk in (1, 37, 4096):
            monkeypatch.setattr(trisample.estimator, "_CHUNK", chunk)
            results.append(run_trials(spec, 500, seed=3, keep_trials=True))
        assert results[0] == results[1] == results[2]
        assert results[0].trial_values.tolist() == results[2].trial_values.tolist()


@pytest.mark.parametrize("kind", ["optimal", "qopt-uniform", "qopt-degree"])
def test_q_optimal_trials_draw_no_partner(monkeypatch, kind):
    # A q-optimal trial is worth (W / 6) * 2 T_i / w_i whatever j is.
    rng = np.random.default_rng(37)
    graphs = [Graph.from_edges(PAW_EDGES), gnp_graph(30, 0.3, rng), hub_graph(120, 0.08, 60, rng)]
    for g in graphs:
        prof = count_exact(g)
        spec = build_sampler(g, kind, prof if kind == "optimal" else None)
        want = run_trials(spec, 500, seed=5, keep_trials=True)
        with monkeypatch.context() as patched:
            patched.setattr(trisample.estimator, "seed_streams", without_pairs_draws(seed_streams))
            got = run_trials(spec, 500, seed=5, keep_trials=True)
        assert got == want
        assert got.trial_values.tolist() == want.trial_values.tolist()


def test_optimal_trials_count_no_local_triangles(monkeypatch):
    def refuse(*_):
        raise AssertionError("optimal trials need no local counts")

    monkeypatch.setattr(trisample.samplers, "local_triangles", refuse)
    rng = np.random.default_rng(23)
    for g in (Graph.from_edges(PAW_EDGES), hub_graph(120, 0.08, 60, rng)):
        prof = count_exact(g)
        est = estimate(g, "optimal", 300, seed=2, oracle=prof)
        assert (est.value, est.empirical_variance) == (prof.total, 0.0)


def test_qopt_trials_read_the_oracle_they_are_given(monkeypatch):
    def refuse(*_):
        raise AssertionError("the oracle holds every T_v")

    kinds = ("qopt-uniform", "qopt-degree")
    rng = np.random.default_rng(29)
    for g in (Graph.from_edges(PAW_EDGES), hub_graph(120, 0.08, 60, rng)):
        prof = count_exact(g)
        before = prof.per_vertex.copy()
        want = [estimate(g, kind, 300, seed=5) for kind in kinds]
        with monkeypatch.context() as m:
            m.setattr(trisample.samplers, "local_triangles", refuse)
            assert [estimate(g, kind, 300, seed=5, oracle=prof) for kind in kinds] == want
        assert np.array_equal(prof.per_vertex, before)


def _fraction_moments(scale, trials, num, den):
    """(sum_beta, sum_beta_sq, empirical_variance) of the trial values
    (scale / 6) * num / den, padded with zero trials, each rounded once."""
    values = [Fraction(scale * a, 6 * b) for a, b in zip(num, den)]
    total, sum_sq = sum(values, Fraction(0)), sum(v * v for v in values)
    variance = (sum_sq - total * total / trials) / (trials - 1) / trials
    return float(total), float(sum_sq), float(variance)


@pytest.mark.parametrize("shared_den", [True, False])
def test_fold_sums_exactly_past_int64(shared_den):
    rng = np.random.default_rng(31)
    limit = math.isqrt(trisample.estimator._INT64_MAX // 4096)  # a full chunk's int64 bound
    for low, high in ((0, limit + 1), (limit, limit + 2), (1 << 30, 1 << 33), (1 << 40, 1 << 50)):
        scale = int(rng.integers(1, 1 << 40))
        moments = Moments(scale)
        nums, dens = [], []
        for size in (4096, 4096, 1000):
            num = rng.integers(low, high, size=size)
            num[0] = high - 1  # the largest value of the range is in every chunk
            den = 7 if shared_den else rng.integers(1, 60, size=size)
            live = size - 3  # three zero-valued trials per chunk
            fold_trials(moments, size, num[:live], den if shared_den else den[:live])
            nums += num[:live].tolist()
            dens += [7] * live if shared_den else den[:live].tolist()
        est = finalize_estimate(moments, "edge-uniform", 0, 9)
        assert est.trials == 9192
        assert (est.sum_beta, est.sum_beta_sq, est.empirical_variance) == _fraction_moments(
            scale, 9192, nums, dens
        )
        assert est.value == est.sum_beta / est.trials


def _dict_sums(num, den):
    """``{d: [sum num, sum num^2]}`` over the entries with denominator d, in Python ints."""
    out = {}
    for a, d in zip(num, den):
        acc = out.setdefault(d, [0, 0])
        acc[0] += a
        acc[1] += a * a
    return out


@pytest.mark.parametrize("python_ints", [False, True])
def test_sums_by_den_match_python_int_sums(monkeypatch, python_ints):
    if python_ints:
        monkeypatch.setattr(trisample.estimator, "_INT64_MAX", 0)  # every sum could overflow
    sums_by_den = trisample.estimator._sums_by_den
    rng = np.random.default_rng(37)
    for size, high in ((1, 10), (50, 1000), (4096, 1 << 30)):
        num = rng.integers(0, high, size=size)
        for den in (rng.integers(1, 40, size=size), np.full(size, 5), rng.integers(0, 3, size=size)):
            want = _dict_sums(num.tolist(), den.tolist())
            dens, sums, squares = sums_by_den(num, den)
            assert dens == sorted(want)  # each denominator present, once
            assert {d: [a, b] for d, a, b in zip(dens, sums, squares)} == want
            assert all(type(x) is int for x in dens + sums + squares)
        for den in (1, 12):
            want = _dict_sums(num.tolist(), [den] * size)[den]
            assert sums_by_den(num, den) == ([den], want[:1], want[1:])
    for den in (1, np.array([], dtype=np.int64)):
        assert sums_by_den(np.array([], dtype=np.int64), den) == ([], [], [])


def test_estimate_refuses_another_graphs_profile(paw):
    other = count_exact(Graph.from_edges(TWO_TRIANGLES_EDGES, n=7))
    for kind in SAMPLER_KINDS:
        with pytest.raises(ValueError, match="7 vertices but the graph has 4"):
            estimate(paw, kind, 3, oracle=other)
