"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and
the per-criterion wall times.
"""

import math
import time
from itertools import combinations

import numpy as np
import pytest

from trisample import (
    Graph,
    MemoryEdgeStream,
    SAMPLER_KINDS,
    chernoff_sample_size,
    count_exact,
    estimate,
    pass1_neighborhoods,
    pass2_local_counts,
    stream_estimate,
    variance_closed_form,
    variance_generic,
)

from conftest import (
    K3_EDGES,
    K4_EDGES,
    PAW_EDGES,
    brute_force_triangles,
    gnp_edges,
)
from trial_reference import enumerated_expectation, neighbours


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\n[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_1_oracle_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1001)
    for _ in range(200):
        n = int(rng.integers(2, 31))
        edges = gnp_edges(n, float(rng.uniform(0.2, 0.5)), rng)
        g = Graph.from_edges(edges, n=n)
        assert count_exact(g).total == brute_force_triangles(n, edges)
    assert count_exact(Graph.from_edges(K4_EDGES)).total == 4
    assert count_exact(Graph.from_edges(PAW_EDGES)).total == 1
    assert count_exact(Graph.from_edges(K3_EDGES)).total == 1
    elapsed = time.perf_counter() - t0
    _report(1, elapsed < 5.0, f"200 random graphs + K3/K4/paw exact, {elapsed:.2f}s (< 5s)")


def test_criterion_2_optimal_sampling_zero_variance():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1002)
    graphs_checked = 0
    worst = 0.0
    while graphs_checked < 50:
        n = int(rng.integers(4, 28))
        g = Graph.from_edges(gnp_edges(n, float(rng.uniform(0.25, 0.5)), rng), n=n)
        prof = count_exact(g)
        if prof.total == 0:
            continue
        est = estimate(g, "optimal", 40, seed=graphs_checked, oracle=prof, keep_trials=True)
        rel = np.max(np.abs(est.trial_values - prof.total)) / prof.total
        worst = max(worst, float(rel))
        assert rel <= 1e-9
        graphs_checked += 1
    elapsed = time.perf_counter() - t0
    _report(
        2,
        elapsed < 10.0,
        f"50 graphs, every optimal trial equals the truth (worst rel dev {worst:.2e}), "
        f"{elapsed:.2f}s (< 10s)",
    )


def test_criterion_3_exact_unbiasedness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1003)
    checked = 0
    for _ in range(100):
        n = int(rng.integers(3, 26))
        g = Graph.from_edges(gnp_edges(n, float(rng.uniform(0.2, 0.5)), rng), n=n)
        if g.m == 0:
            continue
        prof = count_exact(g)
        for kind in SAMPLER_KINDS:
            if kind == "optimal" and prof.total == 0:
                continue
            expectation = enumerated_expectation(g, prof, kind)
            assert expectation == pytest.approx(prof.total, rel=1e-9, abs=1e-9), (kind, g)
            checked += 1
    elapsed = time.perf_counter() - t0
    _report(
        3,
        elapsed < 30.0,
        f"{checked} (graph, sampler) expectations equal the truth at 1e-9, {elapsed:.2f}s (< 30s)",
    )


def _brute_force_variance(n, edges, kind):
    """Generic variance sum recomputed from scratch: own adjacency, own
    local counts, own probability formulas."""
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    m = len(edges)

    def local(i, j):
        if j not in adj[i]:
            return 0
        return len(adj[i] & adj[j])

    delta_v = [sum(local(i, j) for j in range(n)) // 2 for i in range(n)]
    delta = sum(delta_v) // 3

    def p(i):
        return len(adj[i]) / (2 * m) if kind.endswith("degree") else 1 / n

    def q(i, j):
        if kind.startswith("qopt"):
            return local(i, j) / (2 * delta_v[i]) if delta_v[i] else 0.0
        return 1 / len(adj[i]) if j in adj[i] else 0.0

    acc = 0.0
    for i in range(n):
        for j in range(n):
            lij = local(i, j)
            if lij:
                acc += lij**2 / (p(i) * q(i, j))
    return acc / 36 - delta**2


def test_criterion_4_variance_closed_forms():
    t0 = time.perf_counter()
    paw = Graph.from_edges(PAW_EDGES)
    paw_prof = count_exact(paw)
    references = {
        "qopt-uniform": 1 / 3,
        "qopt-degree": 5 / 27,
        "edge-uniform": 5 / 9,
        "edge-degree": 1 / 3,
    }
    for kind, reference in references.items():
        independent = _brute_force_variance(4, PAW_EDGES, kind)
        assert independent == pytest.approx(reference, rel=1e-12), kind
        assert variance_closed_form(paw, paw_prof, kind, 1) == pytest.approx(reference, rel=1e-9)
        assert variance_generic(paw, paw_prof, kind, 1) == pytest.approx(reference, rel=1e-9)

    rng = np.random.default_rng(1004)
    checked = 0
    for _ in range(100):
        n = int(rng.integers(3, 26))
        g = Graph.from_edges(gnp_edges(n, float(rng.uniform(0.2, 0.5)), rng), n=n)
        if g.m == 0:
            continue
        prof = count_exact(g)
        for kind in SAMPLER_KINDS:
            if kind == "optimal" and prof.total == 0:
                continue
            closed = variance_closed_form(g, prof, kind, 1)
            generic = variance_generic(g, prof, kind, 1)
            assert closed == generic, kind
            checked += 1
    elapsed = time.perf_counter() - t0
    _report(
        4,
        elapsed < 30.0,
        f"paw references ok after independent recomputation; closed==generic on "
        f"{checked} cases, {elapsed:.2f}s (< 30s)",
    )


def test_criterion_5_empirical_variance_matches_analytical():
    t0 = time.perf_counter()
    paw = Graph.from_edges(PAW_EDGES)
    prof = count_exact(paw)
    s = 1_000_000
    deviations = {}
    for seed, kind in enumerate(SAMPLER_KINDS, start=500):
        est = estimate(paw, kind, s, seed=seed, oracle=prof, keep_trials=True)
        sample_var = float(np.var(est.trial_values, ddof=1))
        analytical = variance_closed_form(paw, prof, kind, 1)
        if analytical == 0.0:
            assert sample_var <= 1e-18, kind
            deviations[kind] = 0.0
        else:
            rel = abs(sample_var - analytical) / analytical
            assert rel <= 0.05, (kind, sample_var, analytical)
            deviations[kind] = rel
    elapsed = time.perf_counter() - t0
    worst = max(deviations.values())
    _report(
        5,
        elapsed < 60.0,
        f"1e6 single-trial values per kind, worst relative deviation {worst:.3f} (<= 0.05), "
        f"{elapsed:.1f}s (< 60s)",
    )


def test_criterion_6_chernoff_plan_efficacy():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1006)
    n = 500
    edges = gnp_edges(n, 0.08, rng)
    g = Graph.from_edges(edges, n=n)
    prof = count_exact(g)
    truth = prof.total
    assert truth > 0
    upper = float(prof.max_per_edge)
    average = truth / g.m
    epsilon, c = 0.1, 1.0
    s = chernoff_sample_size(epsilon, c, n, upper, average)
    hits = 0
    over_tail = 0
    under_tail = 0
    for rep in range(100):
        value = estimate(g, "edge-degree", s, seed=rep, oracle=prof).value
        rel = (value - truth) / truth
        if abs(rel) <= epsilon:
            hits += 1
        elif rel > epsilon:
            over_tail += 1
        else:
            under_tail += 1
    elapsed = time.perf_counter() - t0
    _report(
        6,
        hits >= 95 and elapsed < 120.0,
        f"G(500,0.08): T={truth}, ub/avg={upper / average:.2f}, planned s={s}; "
        f"{hits}/100 within 10% (over tail {over_tail}, under tail {under_tail}), "
        f"{elapsed:.1f}s (< 120s)",
    )


def test_criterion_7_streaming_fidelity():
    t0 = time.perf_counter()
    # (a) pass budget
    run = stream_estimate(MemoryEdgeStream(PAW_EDGES), 4, seed=2, n=4)
    assert run.passes_used == 2
    run = stream_estimate(MemoryEdgeStream(PAW_EDGES), 4, seed=2)
    assert run.passes_used == 3

    # (b) post-pass state equals the oracle, any stream order: each tally is
    # T_i, and bit r of row v is set iff v neighbours the r-th smallest
    # distinct sampled vertex
    rng = np.random.default_rng(1007)
    graphs_checked = 0
    while graphs_checked < 100:
        n = int(rng.integers(4, 51))
        edges = gnp_edges(n, float(rng.uniform(0.1, 0.35)), rng)
        if not edges:
            continue
        g = Graph.from_edges(edges, n=n)
        prof = count_exact(g)
        sampled = [int(x) for x in rng.integers(n, size=8)]
        for _order in range(5):
            perm = list(edges)
            rng.shuffle(perm)
            state = pass1_neighborhoods(MemoryEdgeStream(perm), sampled, n)
            pass2_local_counts(MemoryEdgeStream(perm), state)
            for t, i in enumerate(sampled):
                assert int(state.vertex_count[t]) == int(prof.per_vertex[i])
                r = sorted(set(sampled)).index(i)  # the column of i's bits
                row = [v for v in range(n) if state.neighbor_bits[v, r >> 3] >> (r & 7) & 1]
                assert row == neighbours(g, i)
        graphs_checked += 1

    # (c) shared seed: stream == in-memory, bit for bit
    for seed in range(20):
        n = int(rng.integers(5, 40))
        edges = gnp_edges(n, 0.3, rng)
        if not edges:
            continue
        g = Graph.from_edges(edges, n=n)
        run = stream_estimate(MemoryEdgeStream(edges), 16, seed=seed, n=n)
        mem = estimate(g, "qopt-uniform", 16, seed=seed)
        assert run.estimate == mem

    # (d) peak state bounded by C * s * n with one C across three decades
    cap = 4.0  # bytes per (sampled vertex, vertex) cell
    s = 16
    ratios = []
    for n in (100, 1000, 10_000):
        target_m = 3 * n
        pairs = rng.integers(0, n, size=(4 * target_m, 2))
        seen = set()
        edges = []
        for u, v in pairs:
            u, v = int(u), int(v)
            if u == v:
                continue
            key = (u, v) if u < v else (v, u)
            if key in seen:
                continue
            seen.add(key)
            edges.append(key)
            if len(edges) >= target_m:
                break
        run = stream_estimate(MemoryEdgeStream(edges), s, seed=1, n=n)
        ratios.append(run.state.state_bytes / (s * n))
    assert all(r <= cap for r in ratios), ratios
    elapsed = time.perf_counter() - t0
    _report(
        7,
        elapsed < 120.0,
        f"passes 2/3 ok; counters==oracle on 100 graphs x 5 orders; 20 seeds bit-exact "
        f"vs in-memory; state bytes/(s*n) = {['%.2f' % r for r in ratios]} <= {cap}, "
        f"{elapsed:.1f}s (< 120s)",
    )


def _best_time(fn, repeats=3):
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_criterion_8_complexity_contracts():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1008)
    g = Graph.from_edges(gnp_edges(300, 0.1, rng), n=300)

    r_squared = {}
    for kind in ("edge-uniform", "edge-degree"):
        s_grid = np.array([1_000, 10_000, 100_000], dtype=float)
        times = np.array(
            [_best_time(lambda s=int(s): estimate(g, kind, s, seed=1)) for s in s_grid]
        )
        slope, intercept = np.polyfit(s_grid, times, 1)
        predicted = slope * s_grid + intercept
        ss_res = float(np.sum((times - predicted) ** 2))
        ss_tot = float(np.sum((times - times.mean()) ** 2))
        r_squared[kind] = 1.0 - ss_res / ss_tot
        assert r_squared[kind] >= 0.99, (kind, times.tolist())

    qopt_ratios = {}
    for kind in ("qopt-uniform", "qopt-degree"):
        t_small = _best_time(lambda: estimate(g, kind, 2_000, seed=1))
        t_large = _best_time(lambda: estimate(g, kind, 20_000, seed=1))
        qopt_ratios[kind] = t_large / t_small
        assert qopt_ratios[kind] <= 13.0, (kind, t_small, t_large)

    elapsed = time.perf_counter() - t0
    _report(
        8,
        elapsed < 120.0,
        f"edge kinds R^2 = {{{', '.join(f'{k}: {v:.4f}' for k, v in r_squared.items())}}}; "
        f"qopt 10x-s time ratios = {{{', '.join(f'{k}: {v:.1f}' for k, v in qopt_ratios.items())}}} "
        f"(<= 13), {elapsed:.1f}s (< 120s)",
    )
