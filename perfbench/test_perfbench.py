"""Self-test of the benchmark's own parts.

    python3 perfbench/test_perfbench.py        # or: python3 -m pytest perfbench

Checks the reference oracle against trisample's ``count_exact`` and
``variance_closed_form`` on small graphs, the determinism of the graph
generators, and that the tracer survives a library that lacks some of
the functions it wraps.
"""

from __future__ import annotations

import os
import sys
import tempfile
import types

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import numpy as np  # noqa: E402

import trisample  # noqa: E402
import trisample.cli  # noqa: E402,F401  (the tracer wraps functions in the cli namespace)
from graphs import chung_lu_graph, uniform_graph, write_edge_list  # noqa: E402
from reference import KINDS, reference_counts  # noqa: E402
from tracing import Spans, Tracer, per_layer_metrics  # noqa: E402


def _small_graphs():
    rng = np.random.default_rng(2024)
    k4 = np.array([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    paw = np.array([(0, 1), (0, 2), (1, 2), (2, 3)])
    yield k4, 4
    yield paw, 4
    for n, m in ((12, 30), (30, 120), (60, 400)):
        yield uniform_graph(n, m, rng), n
    for n, m in ((40, 150), (200, 1200)):
        yield chung_lu_graph(n, m, 2.5, 1.5, rng), n


def test_reference_matches_count_exact_and_closed_forms():
    for edges, n in _small_graphs():
        ref = reference_counts(edges, n)
        g = trisample.Graph.from_edges(edges.tolist(), n=n)
        profile = trisample.count_exact(g)
        assert ref.total == profile.total
        assert np.array_equal(ref.per_vertex, profile.per_vertex)
        got = dict(zip(zip(ref.edge_rows.tolist(), ref.edge_cols.tolist()), ref.edge_counts.tolist()))
        want = {e: c for e, c in profile.per_edge.items() if c}
        assert {e: c for e, c in got.items() if c} == want
        for kind in KINDS:
            lib = trisample.variance_closed_form(g, profile, kind, 7)
            scale = max(abs(lib), float(profile.total) ** 2, 1.0)
            assert abs(ref.variance(kind, 7) - lib) <= 1e-9 * scale, (kind, n)


def test_s_eps_reaches_the_target_spread():
    edges = uniform_graph(300, 3000, np.random.default_rng(5))
    ref = reference_counts(edges, 300)
    for kind in KINDS:
        s = ref.s_eps(kind)
        assert 1.96 * np.sqrt(ref.variance(kind, s)) <= 0.1 * ref.total
        if s > 1:
            assert 1.96 * np.sqrt(ref.variance(kind, s - 1)) > 0.1 * ref.total


def test_generators_are_seeded_and_simple():
    for make in (
        lambda rng: uniform_graph(500, 4000, rng),
        lambda rng: chung_lu_graph(500, 4000, 2.5, 1.5, rng),
    ):
        a = make(np.random.default_rng(9))
        b = make(np.random.default_rng(9))
        c = make(np.random.default_rng(10))
        assert np.array_equal(a, b) and not np.array_equal(a, c)
        assert len(a) == 4000 and np.all(a[:, 0] < a[:, 1])
        assert len(np.unique(a[:, 0] * 500 + a[:, 1])) == 4000


def test_written_file_loads_to_the_same_graph():
    rng = np.random.default_rng(3)
    edges = uniform_graph(100, 600, rng)
    with tempfile.TemporaryDirectory() as tmp:
        f = write_edge_list(edges, 120, os.path.join(tmp, "g.edges"), rng)
        g = trisample.load_edge_list(f.path)
        with open(f.path, encoding="utf-8") as fh:
            assert sum(1 for _ in fh) == f.lines
    assert (g.n, g.m) == (120, 600)
    assert g == trisample.Graph.from_edges(edges.tolist(), n=120)


def test_tracer_records_spans_and_restores_the_library():
    before = (trisample.samplers.draw_given_i, trisample.estimator.run_trials)
    edges = uniform_graph(200, 1500, np.random.default_rng(1))
    g = trisample.Graph.from_edges(edges.tolist(), n=200)
    tracer = Tracer({})
    tracer.install(trisample)
    try:
        tracer.op, tracer.ops[0] = 0, ("time_to_eps_s.edge-degree", "edge-degree")
        est = trisample.estimate(g, "edge-degree", 50, seed=1, keep_trials=True)
    finally:
        tracer.uninstall()
    assert (trisample.samplers.draw_given_i, trisample.estimator.run_trials) == before
    assert tracer.absent == []
    metrics = per_layer_metrics(Spans(tracer), stream_edges=0)
    assert metrics["estimator.run_trials_s.edge-degree"] > 0
    useful = int((est.trial_values > 0).sum())
    assert metrics["estimator.useful_ratio.edge-degree"] == useful / 50


def test_tracer_reports_missing_functions_as_absent():
    fake = types.SimpleNamespace(
        samplers=types.SimpleNamespace(draw_vertex=lambda spec, rng: 0),
        cli=types.SimpleNamespace(),
    )
    tracer = Tracer({})
    tracer.install(fake)
    assert "trisample.samplers.draw_given_i" in tracer.absent
    assert "trisample.samplers.draw_vertex" not in tracer.absent
    fake.samplers.draw_vertex(None, None)
    tracer.uninstall()
    metrics = per_layer_metrics(Spans(tracer), stream_edges=0)
    assert metrics["samplers.draw_given_i_us.qopt-uniform"] == 0.0
    assert all(np.isfinite(v) for v in metrics.values())


if __name__ == "__main__":
    tests = [f for name, f in sorted(globals().items()) if name.startswith("test_")]
    for test in tests:
        test()
        print(f"ok {test.__name__}")
