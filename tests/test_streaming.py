import numpy as np
import pytest

from trisample import (
    MemoryEdgeStream,
    StreamFormatError,
    count_exact,
    estimate,
    finalize_stream_estimate,
    pass1_neighborhoods,
    pass2_local_counts,
    pass_count_n,
    stream_estimate,
)
from trisample.streaming import PHASE_DONE, PHASE_PASS2

from conftest import PAW_EDGES, PATH3_EDGES, gnp_edges
from trisample import Graph


def _bits_set(state, slot):
    out = []
    for j in range(state.n):
        if state.neighbor_bits[slot, j >> 3] & (1 << (j & 7)):
            out.append(j)
    return out


def test_pass_count_n():
    assert pass_count_n(MemoryEdgeStream(PAW_EDGES)) == 4
    assert pass_count_n(MemoryEdgeStream([(7, 2)])) == 8
    assert pass_count_n(MemoryEdgeStream([(0, 1), (0, 2), (1, 2)])) == 3
    with pytest.raises(StreamFormatError, match="empty stream"):
        pass_count_n(MemoryEdgeStream([]))


def test_pass1_neighborhoods():
    state = pass1_neighborhoods(MemoryEdgeStream(PAW_EDGES), [2], 4)
    assert _bits_set(state, 0) == [0, 1, 3]
    state = pass1_neighborhoods(MemoryEdgeStream(PAW_EDGES), [3], 4)
    assert _bits_set(state, 0) == [2]
    empty = pass1_neighborhoods(MemoryEdgeStream(PAW_EDGES), [], 4)
    assert empty.neighbor_bits.shape == (0, 1)


def test_pass1_rejects_out_of_universe_and_self_loops():
    with pytest.raises(StreamFormatError, match="outside vertex universe"):
        pass1_neighborhoods(MemoryEdgeStream([(0, 9)]), [0], 4)
    with pytest.raises(StreamFormatError, match="self-loop"):
        pass1_neighborhoods(MemoryEdgeStream([(1, 1)]), [0], 4)
    with pytest.raises(ValueError, match="sampled vertex"):
        pass1_neighborhoods(MemoryEdgeStream(PAW_EDGES), [4], 4)


def test_pass2_counts_on_paw():
    state = pass1_neighborhoods(MemoryEdgeStream(PAW_EDGES), [2], 4)
    pass2_local_counts(MemoryEdgeStream(PAW_EDGES), state)
    assert int(state.vertex_count[0]) == 1
    assert state.edge_counts[0].tolist() == [1, 1, 0, 0]

    state = pass1_neighborhoods(MemoryEdgeStream(PAW_EDGES), [3], 4)
    pass2_local_counts(MemoryEdgeStream(PAW_EDGES), state)
    assert int(state.vertex_count[0]) == 0

    state = pass1_neighborhoods(MemoryEdgeStream(PATH3_EDGES), [0, 1, 2], 3)
    pass2_local_counts(MemoryEdgeStream(PATH3_EDGES), state)
    assert state.vertex_count.tolist() == [0, 0, 0]


def test_pass2_requires_pass1_order():
    state = pass1_neighborhoods(MemoryEdgeStream(PAW_EDGES), [2], 4)
    rng = np.random.default_rng(0)
    with pytest.raises(RuntimeError, match="finalize requires completed pass 2"):
        finalize_stream_estimate(state, rng)
    pass2_local_counts(MemoryEdgeStream(PAW_EDGES), state)
    with pytest.raises(RuntimeError, match="pass 2 requires completed pass 1"):
        pass2_local_counts(MemoryEdgeStream(PAW_EDGES), state)


def test_finalize_examples():
    rng = np.random.default_rng(0)
    state = pass1_neighborhoods(MemoryEdgeStream(PAW_EDGES), [2], 4)
    pass2_local_counts(MemoryEdgeStream(PAW_EDGES), state)
    est = finalize_stream_estimate(state, rng)
    assert est.value == pytest.approx(4 / 3, rel=1e-12)
    assert state.pass_phase == PHASE_DONE
    assert state.final_draws[0].j in (0, 1)

    state = pass1_neighborhoods(MemoryEdgeStream(PAW_EDGES), [3], 4)
    pass2_local_counts(MemoryEdgeStream(PAW_EDGES), state)
    est = finalize_stream_estimate(state, rng)
    assert est.value == 0.0
    assert state.final_draws[0].degenerate

    state = pass1_neighborhoods(MemoryEdgeStream(PAW_EDGES), [0, 1, 2, 3], 4)
    pass2_local_counts(MemoryEdgeStream(PAW_EDGES), state)
    est = finalize_stream_estimate(state, rng)
    assert est.value == 1.0


def test_counters_match_oracle_after_pass2():
    rng = np.random.default_rng(71)
    for _ in range(20):
        n = int(rng.integers(4, 40))
        edges = gnp_edges(n, 0.3, rng)
        if not edges:
            continue
        g = Graph.from_edges(edges, n=n)
        prof = count_exact(g)
        sampled = [int(x) for x in rng.integers(n, size=6)]
        for _order in range(3):
            perm = list(edges)
            rng.shuffle(perm)
            state = pass1_neighborhoods(MemoryEdgeStream(perm), sampled, n)
            pass2_local_counts(MemoryEdgeStream(perm), state)
            for t, i in enumerate(sampled):
                assert int(state.vertex_count[t]) == int(prof.per_vertex[i])
                for j in range(n):
                    assert int(state.edge_counts[t, j]) == prof.edge_count(i, j)
                assert int(state.edge_counts[t].sum()) == 2 * int(state.vertex_count[t])


def test_pass_budget_two_with_n_three_without():
    src = MemoryEdgeStream(PAW_EDGES)
    run = stream_estimate(src, 4, seed=2, n=4)
    assert run.passes_used == 2
    src = MemoryEdgeStream(PAW_EDGES)
    run = stream_estimate(src, 4, seed=2)
    assert run.passes_used == 3


def test_declared_n_skips_the_counting_pass():
    src = MemoryEdgeStream(PAW_EDGES, n=4)
    run = stream_estimate(src, 4, seed=2)
    assert run.passes_used == 2


def test_stream_equals_in_memory_bit_for_bit(paw):
    for seed in range(12):
        run = stream_estimate(MemoryEdgeStream(PAW_EDGES), 16, seed=seed, n=4)
        mem = estimate(paw, "qopt-uniform", 16, seed=seed)
        assert run.estimate == mem


def test_stream_and_in_memory_count_the_same_degenerate_trials(paw):
    # Vertex 3 of the paw is in no triangle: its trials are degenerate.
    run = stream_estimate(MemoryEdgeStream(PAW_EDGES), 40, seed=8, n=4)
    mem = estimate(paw, "qopt-uniform", 40, seed=8)
    assert run.estimate.degenerate_trials == mem.degenerate_trials
    assert mem.degenerate_trials == sum(i == 3 for i in run.state.sampled) > 0


def test_stream_equals_in_memory_on_random_graphs():
    rng = np.random.default_rng(83)
    for _ in range(10):
        n = int(rng.integers(4, 50))
        edges = gnp_edges(n, 0.3, rng)
        if not edges:
            continue
        g = Graph.from_edges(edges, n=n)
        seed = int(rng.integers(1 << 30))
        run = stream_estimate(MemoryEdgeStream(edges), 16, seed=seed, n=n)
        assert run.estimate == estimate(g, "qopt-uniform", 16, seed=seed)


def test_stream_order_does_not_change_the_estimate():
    rng = np.random.default_rng(89)
    edges = gnp_edges(20, 0.3, rng)
    baseline = stream_estimate(MemoryEdgeStream(edges), 8, seed=5, n=20).estimate
    for _ in range(5):
        perm = list(edges)
        rng.shuffle(perm)
        again = stream_estimate(MemoryEdgeStream(perm), 8, seed=5, n=20).estimate
        assert again == baseline


def test_duplicate_edge_detected_at_sampled_vertex():
    dup = PAW_EDGES + [(1, 0)]
    with pytest.raises(StreamFormatError, match="duplicate edge"):
        pass1_neighborhoods(MemoryEdgeStream(dup), [0], 4)
    # not touching a sampled vertex: slips past the probabilistic check...
    state = pass1_neighborhoods(MemoryEdgeStream(dup), [3], 4)
    assert state is not None
    # ...but strict mode hashes every edge and refuses
    with pytest.raises(StreamFormatError, match="duplicate edge"):
        pass1_neighborhoods(MemoryEdgeStream(dup), [3], 4, strict=True)


def test_state_bytes_scale_linearly_in_s_times_n():
    rng = np.random.default_rng(97)
    per_sn = []
    for n in (100, 1000):
        edges = gnp_edges(n, min(0.2, 20.0 / n), rng)
        state = pass1_neighborhoods(MemoryEdgeStream(edges), [0] * 16, n)
        per_sn.append(state.state_bytes / (16 * n))
    assert all(ratio <= 4.0 for ratio in per_sn)


def test_stream_estimate_validates_inputs():
    with pytest.raises(ValueError, match="at least 1"):
        stream_estimate(MemoryEdgeStream(PAW_EDGES), 0, n=4)
    with pytest.raises(ValueError, match="positive"):
        stream_estimate(MemoryEdgeStream(PAW_EDGES), 2, n=0)
