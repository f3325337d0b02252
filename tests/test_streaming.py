import itertools
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest

from trisample import (
    EdgeStreamSource,
    FileEdgeStream,
    MemoryEdgeStream,
    StreamFormatError,
    count_exact,
    estimate,
    finalize_stream_estimate,
    pass1_neighborhoods,
    pass2_local_counts,
    pass_count_n,
    StreamState,
    estimator,
    graph,
    seed_streams,
    stream_estimate,
    streaming,
)
from trisample.streaming import PHASE_DONE, PHASE_PASS2, _check_endpoints

from conftest import PAW_EDGES, PATH3_EDGES, gnp_edges, stream_pairs, without_pairs_draws
from trisample import Graph
from trial_reference import neighbours


def _bits_set(state, r):
    """The vertices whose row has bit r set: the neighbours of the r-th
    smallest distinct sampled vertex."""
    out = []
    for j in range(state.n):
        if state.neighbor_bits[j, r >> 3] & (1 << (r & 7)):
            out.append(j)
    return out


def test_pass_count_n():
    assert pass_count_n(MemoryEdgeStream(PAW_EDGES)) == 4
    assert pass_count_n(MemoryEdgeStream([(7, 2)])) == 8
    assert pass_count_n(MemoryEdgeStream([(0, 1), (0, 2), (1, 2)])) == 3
    with pytest.raises(StreamFormatError, match="empty stream"):
        pass_count_n(MemoryEdgeStream([]))
    # a stream of negative ids is not empty: the first bad edge is named
    for edges in ([(-2, -1)], [(-2, -1), (0, 1)], [(0, 1), (-2, -1), (3, 3)]):
        with pytest.raises(StreamFormatError, match=r"^edge \(-2,-1\) has a negative vertex id$"):
            pass_count_n(MemoryEdgeStream(edges))
    with pytest.raises(StreamFormatError, match=r"^edge \(-2,-1\) has a negative vertex id$"):
        stream_estimate(MemoryEdgeStream([(-2, -1)]), 4)
    with pytest.raises(StreamFormatError, match=r"^self-loop \(3,3\)"):
        pass_count_n(MemoryEdgeStream([(0, 1), (3, 3), (-2, -1)]))


def test_an_explicit_n_must_agree_with_the_declared_one(tmp_path):
    path = tmp_path / "paw.edges"
    path.write_text("# n=4\n" + "".join(f"{u} {v}\n" for u, v in PAW_EDGES))
    for source in (FileEdgeStream(path), MemoryEdgeStream(PAW_EDGES, n=4)):
        for n in (3, 5, 100):
            with pytest.raises(StreamFormatError, match=f"^n={n} contradicts the n=4 the source declares$"):
                stream_estimate(source, 8, seed=3, n=n)
        assert source.passes == 0
        run = stream_estimate(source, 8, seed=3, n=4)
        assert run.passes_used == 2
        assert run.estimate == stream_estimate(source, 8, seed=3).estimate


def test_pass1_neighborhoods():
    state = pass1_neighborhoods(MemoryEdgeStream(PAW_EDGES), [2], 4)
    assert _bits_set(state, 0) == [0, 1, 3]
    state = pass1_neighborhoods(MemoryEdgeStream(PAW_EDGES), [3], 4)
    assert _bits_set(state, 0) == [2]
    empty = pass1_neighborhoods(MemoryEdgeStream(PAW_EDGES), [], 4)
    assert empty.neighbor_bits.shape == (4, 0)


def test_pass1_rejects_out_of_universe_and_self_loops():
    with pytest.raises(StreamFormatError, match="outside vertex universe"):
        pass1_neighborhoods(MemoryEdgeStream([(0, 9)]), [0], 4)
    with pytest.raises(StreamFormatError, match="self-loop"):
        pass1_neighborhoods(MemoryEdgeStream([(1, 1)]), [0], 4)
    with pytest.raises(ValueError, match="sampled vertex"):
        pass1_neighborhoods(MemoryEdgeStream(PAW_EDGES), [4], 4)


def test_pass1_refuses_sampled_ids_that_are_not_integers():
    for sampled in ([2.7], ["3"], [0, 1.0], [np.float64(2)]):
        with pytest.raises(ValueError, match="vertex ids must be integers"):
            pass1_neighborhoods(MemoryEdgeStream(PAW_EDGES), sampled, 4)
    for sampled, bad in (([0, 4], 4), ([1, -1, 9], -1), ([2, 1 << 70], 1 << 70)):
        with pytest.raises(ValueError, match=f"^sampled vertex {bad} outside universe"):
            pass1_neighborhoods(MemoryEdgeStream(PAW_EDGES), sampled, 4)
    state = pass1_neighborhoods(MemoryEdgeStream(PAW_EDGES), [np.int64(2), 2], 4)
    assert state.sampled == [2, 2] and all(type(v) is int for v in state.sampled)


def test_pass2_counts_on_paw():
    state = pass1_neighborhoods(MemoryEdgeStream(PAW_EDGES), [2], 4)
    pass2_local_counts(MemoryEdgeStream(PAW_EDGES), state)
    assert int(state.vertex_count[0]) == 1
    assert _bits_set(state, 0) == [0, 1, 3]

    state = pass1_neighborhoods(MemoryEdgeStream(PAW_EDGES), [3], 4)
    pass2_local_counts(MemoryEdgeStream(PAW_EDGES), state)
    assert int(state.vertex_count[0]) == 0

    state = pass1_neighborhoods(MemoryEdgeStream(PATH3_EDGES), [0, 1, 2], 3)
    pass2_local_counts(MemoryEdgeStream(PATH3_EDGES), state)
    assert state.vertex_count.tolist() == [0, 0, 0]


def test_pass2_requires_pass1_order():
    state = pass1_neighborhoods(MemoryEdgeStream(PAW_EDGES), [2], 4)
    with pytest.raises(RuntimeError, match="finalize requires completed pass 2"):
        finalize_stream_estimate(state)
    pass2_local_counts(MemoryEdgeStream(PAW_EDGES), state)
    with pytest.raises(RuntimeError, match="pass 2 requires completed pass 1"):
        pass2_local_counts(MemoryEdgeStream(PAW_EDGES), state)


def test_finalize_examples():
    state = pass1_neighborhoods(MemoryEdgeStream(PAW_EDGES), [2], 4)
    pass2_local_counts(MemoryEdgeStream(PAW_EDGES), state)
    est = finalize_stream_estimate(state)
    assert est.value == pytest.approx(4 / 3, rel=1e-12)
    assert state.pass_phase == PHASE_DONE
    assert est.degenerate_trials == 0

    state = pass1_neighborhoods(MemoryEdgeStream(PAW_EDGES), [3], 4)
    pass2_local_counts(MemoryEdgeStream(PAW_EDGES), state)
    est = finalize_stream_estimate(state)
    assert est.value == 0.0
    assert est.degenerate_trials == 1

    state = pass1_neighborhoods(MemoryEdgeStream(PAW_EDGES), [0, 1, 2, 3], 4)
    pass2_local_counts(MemoryEdgeStream(PAW_EDGES), state)
    est = finalize_stream_estimate(state)
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
            columns = sorted(set(sampled))
            for t, i in enumerate(sampled):
                assert int(state.vertex_count[t]) == int(prof.per_vertex[i])
                assert _bits_set(state, columns.index(i)) == neighbours(g, i)


def test_tallies_cross_the_unpacked_column_slices():
    # Pass 2 unpacks 512 columns at a time; here over 1024 distinct sampled
    # vertices fill three slices, the last one partly.
    rng = np.random.default_rng(73)
    n = 1500
    edges = gnp_edges(n, 0.01, rng)
    prof = count_exact(Graph.from_edges(edges, n=n))
    sampled = rng.integers(n, size=6000).tolist()
    assert 1024 < len(set(sampled)) < 1500
    state = pass1_neighborhoods(MemoryEdgeStream(edges), sampled, n)
    pass2_local_counts(MemoryEdgeStream(edges), state)
    assert state.vertex_count.tolist() == prof.per_vertex[sampled].tolist()
    assert state.vertex_count.any()


def test_the_finalize_draws_nothing(monkeypatch):
    # A trial is worth (n / 6) * 2 T_i whatever j is: no generator is needed.
    run = stream_estimate(MemoryEdgeStream(PAW_EDGES), 16, seed=3, n=4)
    monkeypatch.setattr(streaming, "seed_streams", without_pairs_draws(seed_streams))
    assert stream_estimate(MemoryEdgeStream(PAW_EDGES), 16, seed=3, n=4).estimate == run.estimate
    state = pass1_neighborhoods(MemoryEdgeStream(PAW_EDGES), run.state.sampled, 4)
    pass2_local_counts(MemoryEdgeStream(PAW_EDGES), state)
    assert finalize_stream_estimate(state, seed=3) == run.estimate


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


def test_repeat_keys_do_not_wrap_around_int64():
    n = 1 << 62  # the key of {4,5}, 4 n + 5, would read 5 in int64, the key of {0,5}
    seen = set()
    streaming._add_new_edges(seen, np.array([0, 5]), np.array([5, 4]), n)
    assert seen == {5, 4 * n + 5}
    with pytest.raises(StreamFormatError, match=r"duplicate edge \{4,5\} in stream"):
        streaming._add_new_edges(seen, np.array([7, 1, 4]), np.array([8, 2, 5]), n)
    assert seen == {5, 4 * n + 5, 7 * n + 8, n + 2}  # the edges before the repeat went in


def test_pass2_refuses_a_repeated_edge_that_closes_a_triangle():
    # (1, 0) again touches no sampled vertex, so pass 1 lets it through;
    # pass 2 would count the triangle {0, 1, 2} twice.
    dup = PAW_EDGES + [(1, 0)]
    state = pass1_neighborhoods(MemoryEdgeStream(dup), [2], 4)
    with pytest.raises(StreamFormatError, match=r"duplicate edge \{0,1\} in stream"):
        pass2_local_counts(MemoryEdgeStream(dup), state)
    run = stream_estimate(MemoryEdgeStream(PAW_EDGES), 3, seed=11, n=4)
    assert run.state.sampled == [2, 3, 2]  # vertices 0 and 1 are not sampled
    with pytest.raises(StreamFormatError, match=r"duplicate edge \{0,1\} in stream"):
        stream_estimate(MemoryEdgeStream(dup), 3, seed=11, n=4)


@pytest.mark.parametrize("block", [1, 3, 4096])
def test_pass2_names_the_first_repeat_in_stream_order(block):
    # K4 with vertex 0 sampled: every edge among 1, 2, 3 closes a triangle.
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (1, 3)]
    with patch.object(streaming, "_STREAM_BLOCK", block):
        for first, second in itertools.permutations([(2, 1), (3, 2), (1, 3)], 2):
            for at in range(len(edges) + 1):
                stream = edges[:at] + [first] + edges[at:] + [second]
                state = pass1_neighborhoods(MemoryEdgeStream(stream), [0], 4)
                ref = _reference_pass1(MemoryEdgeStream(stream), [0], 4)
                got = _outcome(pass2_local_counts, MemoryEdgeStream(stream), state)
                want = _outcome(_reference_pass2, MemoryEdgeStream(stream), ref)
                assert got == want
                u, v = sorted(first)
                assert got == (StreamFormatError, f"duplicate edge {{{u},{v}}} in stream")


def test_state_bytes_scale_linearly_in_s_times_n():
    rng = np.random.default_rng(97)
    per_sn = []
    for n in (100, 1000):
        edges = gnp_edges(n, min(0.2, 20.0 / n), rng)
        state = pass1_neighborhoods(MemoryEdgeStream(edges), [0] * 16, n)
        per_sn.append(state.state_bytes / (16 * n))
    assert all(ratio <= 4.0 for ratio in per_sn)


def test_finalize_without_sampled_vertices_is_a_clear_error():
    state = pass1_neighborhoods(MemoryEdgeStream(PAW_EDGES), [], 4)
    pass2_local_counts(MemoryEdgeStream(PAW_EDGES), state)
    with pytest.raises(ValueError, match="no trials"):
        finalize_stream_estimate(state)


def test_stream_estimate_validates_inputs():
    with pytest.raises(ValueError, match="at least 1"):
        stream_estimate(MemoryEdgeStream(PAW_EDGES), 0, n=4)
    with pytest.raises(ValueError, match="positive"):
        stream_estimate(MemoryEdgeStream(PAW_EDGES), 2, n=0)


# -- the edge-by-edge passes, kept as the reference for the block passes --


def _reference_pass1(source, sampled, n, strict=False):
    sampled = [int(i) for i in sampled]
    column_of = {i: r for r, i in enumerate(sorted(set(sampled)))}
    state = StreamState(
        sampled=sampled,
        n=n,
        neighbor_bits=np.zeros((n, (len(column_of) + 7) // 8), dtype=np.uint8),
        vertex_count=np.zeros(len(sampled), dtype=np.int64),
    )
    bits = state.neighbor_bits
    seen = set() if strict else None
    for u, v in stream_pairs(source):
        _check_endpoints(u, v, n)
        state.m += 1
        if seen is not None:
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise StreamFormatError(f"duplicate edge {{{key[0]},{key[1]}}} in stream")
            seen.add(key)
        for i, other in ((u, v), (v, u)):
            if i in column_of:
                r = column_of[i]
                byte, mask = r >> 3, 1 << (r & 7)
                if bits[other, byte] & mask:
                    raise StreamFormatError(
                        f"duplicate edge {{{u},{v}}} detected at sampled vertex {i}"
                    )
                bits[other, byte] |= mask
    return state


def _reference_pass2(source, state):
    bits = state.neighbor_bits
    columns = sorted(set(state.sampled))
    r = np.arange(len(columns))
    tally = np.zeros(len(columns), dtype=np.int64)
    closing = set()
    for j, d in stream_pairs(source):
        _check_endpoints(j, d, state.n)
        hit = (bits[j, r >> 3] & (1 << (r & 7))) != 0
        hit &= (bits[d, r >> 3] & (1 << (r & 7))) != 0
        if hit.any():
            key = (min(j, d), max(j, d))
            if key in closing:
                raise StreamFormatError(f"duplicate edge {{{key[0]},{key[1]}}} in stream")
            closing.add(key)
            tally[hit] += 1
    for t, i in enumerate(state.sampled):
        state.vertex_count[t] = tally[columns.index(i)]
    state.pass_phase = PHASE_PASS2
    return state


def _outcome(fn, *args, **kwargs):
    """What a call raised, as (type, message), or its result."""
    try:
        return fn(*args, **kwargs)
    except (StreamFormatError, ValueError) as exc:
        return type(exc), str(exc)


def _on_stream(fn, edges, *args):
    """``fn`` run on a MemoryEdgeStream of ``edges``; building the stream is
    part of the call, since it already refuses ids beyond int64."""
    return fn(MemoryEdgeStream(edges), *args)


def _same_state(a, b):
    assert a.m == b.m
    assert np.array_equal(a.neighbor_bits, b.neighbor_bits)
    assert np.array_equal(a.vertex_count, b.vertex_count)


# A path 0-1-...-9 on n=12 vertices, vertex 11 isolated; sampled vertices
# 3 (twice) and 6.  `_bad_stream` puts a bad edge at position `at`.
_PATH = [(k, k + 1) for k in range(9)]
_N = 12
_SAMPLED = [3, 6, 3]
_BAD_EDGES = {
    "self-loop": [(5, 5)],
    "id >= n": [(2, _N)],
    "negative id": [(-1, 4)],
    "id beyond int64": [(4, 1 << 64)],
    "negative id beyond int64": [(-(1 << 64), 4)],
    "duplicate at a sampled vertex": [(4, 3)],
    "duplicate, then a bad endpoint": [(7, 6), (0, 0)],
    "bad endpoint, then a duplicate": [(0, 20), (7, 6)],
    "duplicate, then a self-loop at a sampled vertex": [(2, 3), (3, 3)],
    "strict-only duplicate": [(1, 0)],
}


def _bad_stream(case, at):
    edges = list(_PATH)
    edges[at:at] = _BAD_EDGES[case]
    return edges


@pytest.mark.parametrize("block", [1, 3])
@pytest.mark.parametrize("case", sorted(_BAD_EDGES))
def test_block_passes_raise_the_reference_error(case, block):
    # With 3-edge blocks, positions 2, 3 and 4 are before, at and after a
    # block edge; a duplicate at position 8 repeats an edge two blocks back.
    for at, strict in itertools.product((2, 3, 4, 8), (False, True)):
        edges = _bad_stream(case, at)
        with patch.object(streaming, "_STREAM_BLOCK", block):
            got = _outcome(_on_stream, pass1_neighborhoods, edges, _SAMPLED, _N, strict)
            want = _outcome(_on_stream, _reference_pass1, edges, _SAMPLED, _N, strict)
            if isinstance(want, StreamState):
                _same_state(got, want)
            else:
                assert got == want, (at, strict)
            good = pass1_neighborhoods(MemoryEdgeStream(_PATH), _SAMPLED, _N)
            ref = _reference_pass1(MemoryEdgeStream(_PATH), _SAMPLED, _N)
            got = _outcome(_on_stream, pass2_local_counts, edges, good)
            want = _outcome(_on_stream, _reference_pass2, edges, ref)
        if isinstance(want, StreamState):  # the stream has more edges than pass 1 read
            assert got[0] is StreamFormatError and "changed between passes" in got[1], at
        else:
            assert got == want, at


def test_every_bad_edge_case_raises():
    # The parity test above would pass vacuously if a case raised nothing.
    # Ids beyond int64 are refused when the stream is built, not by a pass.
    for case in _BAD_EDGES:
        strict = case == "strict-only duplicate"
        error = ValueError if "beyond int64" in case else StreamFormatError
        with pytest.raises(error) as raised:
            source = MemoryEdgeStream(_bad_stream(case, 3))
            pass1_neighborhoods(source, _SAMPLED, _N, strict=strict)
        assert (error is StreamFormatError) != ("fit in 64 bits" in str(raised.value)), case


def test_an_id_beyond_int64_is_outside_the_universe():
    # Streams hold int64 ids, so such an id is refused when the stream is built.
    for edges in ([(0, 1 << 64)], [(0, 1), (0, 1 << 64)], [(0, 1), (4, 1 << 63)], [(-(1 << 64), 4)]):
        with pytest.raises(ValueError, match="fit in 64 bits"):
            MemoryEdgeStream(edges)
        with pytest.raises(ValueError, match="fit in 64 bits"):
            Graph.from_edges(edges)


@pytest.mark.parametrize("block", [1, 3, 4096])
def test_block_passes_match_the_edge_by_edge_passes(block):
    rng = np.random.default_rng(103)
    with patch.object(streaming, "_STREAM_BLOCK", block):
        for _ in range(15):
            n = int(rng.integers(4, 40))
            edges = gnp_edges(n, float(rng.uniform(0.1, 0.5)), rng)
            rng.shuffle(edges)
            flips = rng.random(len(edges)) < 0.5
            edges = [(v, u) if flip else (u, v) for (u, v), flip in zip(edges, flips)]
            sampled = rng.integers(n, size=int(rng.integers(1, 12))).tolist()
            sampled += sampled[:3]  # a repeated sampled vertex keeps one column
            got = pass1_neighborhoods(MemoryEdgeStream(edges), sampled, n)
            want = _reference_pass1(MemoryEdgeStream(edges), sampled, n)
            _same_state(got, want)
            pass2_local_counts(MemoryEdgeStream(edges), got)
            _reference_pass2(MemoryEdgeStream(edges), want)
            _same_state(got, want)


@pytest.mark.parametrize("block", [3, 4096])
def test_slots_that_span_two_bytes(block):
    # Ten distinct sampled vertices take two bytes per bit row; the two
    # largest are columns 8 and 9, so their marks sit in the second byte,
    # and so do the hits of one of them at least.  Six more slots repeat
    # the ten, in shuffled positions.
    rng = np.random.default_rng(109)
    s = 16
    with patch.object(streaming, "_STREAM_BLOCK", block):
        for _ in range(4):
            n = int(rng.integers(12, 30))
            edges = gnp_edges(n, 0.4, rng)
            g = Graph.from_edges(edges, n=n)
            prof = count_exact(g)
            distinct = rng.choice(n, size=10, replace=False)
            columns = sorted(distinct.tolist())
            assert prof.per_vertex[columns[8:]].any()
            sampled = distinct.tolist() + rng.choice(distinct, size=s - 10).tolist()
            rng.shuffle(sampled)
            for _order in range(2):
                rng.shuffle(edges)
                got = pass1_neighborhoods(MemoryEdgeStream(edges), sampled, n)
                want = _reference_pass1(MemoryEdgeStream(edges), sampled, n)
                _same_state(got, want)
                assert got.neighbor_bits.shape == (n, 2)
                assert got.state_bytes == n * 2 + 8 * s
                pass2_local_counts(MemoryEdgeStream(edges), got)
                _reference_pass2(MemoryEdgeStream(edges), want)
                _same_state(got, want)
                for t, i in enumerate(sampled):
                    assert int(got.vertex_count[t]) == int(prof.per_vertex[i])
                    assert _bits_set(got, columns.index(i)) == neighbours(g, i)
                # The in-memory engine, given the same first stage.
                seed = int(rng.integers(1 << 30))
                streamed = finalize_stream_estimate(got, seed=seed)
                with patch.object(estimator, "draw_vertices", lambda *_: np.array(sampled)):
                    assert streamed == estimate(g, "qopt-uniform", s, seed=seed)


def test_pass1_memory_follows_the_distinct_sampled_vertices():
    # s = 16 000 slots over 60 vertices: one bit per distinct vertex, not
    # per slot.  A row of slot bits would take 2000 bytes, and pass 1
    # would gather such a row for every incidence at a sampled vertex.
    n, s, seed = 60, 16_000, 4
    edges = gnp_edges(n, 0.3, np.random.default_rng(113))
    g = Graph.from_edges(edges, n=n)
    sampled = seed_streams(seed).vertices.integers(n, size=s).tolist()
    pass1_neighborhoods(MemoryEdgeStream(edges), sampled, n)  # warm-up
    source = MemoryEdgeStream(edges)
    tracemalloc.start()
    try:
        state = pass1_neighborhoods(source, sampled, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20, peak
    d = len(set(sampled))
    assert state.neighbor_bits.shape == (n, (d + 7) // 8)
    assert state.state_bytes == n * ((d + 7) // 8) + 8 * s
    pass2_local_counts(source, state)
    assert finalize_stream_estimate(state, seed=seed) == estimate(g, "qopt-uniform", s, seed=seed)


@pytest.mark.parametrize("block", [1, 3, 4096])
def test_a_full_pass_is_counted_whatever_the_block(block):
    with patch.object(streaming, "_STREAM_BLOCK", block):
        for m in (3, 4, 6):
            src = MemoryEdgeStream(_PATH[:m])
            state = pass1_neighborhoods(src, [1], _N)
            pass2_local_counts(src, state)
            assert src.passes == 2
            assert state.m == m


class _ShrinkingStream(EdgeStreamSource):
    """Drops its last edge after the first pass, as a file truncated
    between the passes would."""

    def __init__(self, edges):
        super().__init__()
        self._edges = list(edges)

    def _arrays(self):
        yield np.array(self._edges[: len(self._edges) - (self.passes > 0)], dtype=np.int64)


def test_a_stream_that_changes_between_passes_is_refused():
    with pytest.raises(StreamFormatError, match="stream changed between passes"):
        stream_estimate(_ShrinkingStream(PAW_EDGES), 4, seed=1, n=4)


class _CutStream(EdgeStreamSource):
    """Yields its edges as an array longer than ``_STREAM_BLOCK``, an empty
    array and a short array."""

    def __init__(self, edges):
        super().__init__()
        self._edges = np.array(edges, dtype=np.int64)

    def _arrays(self):
        cut = streaming._STREAM_BLOCK + 5
        yield self._edges[:cut]
        yield np.empty((0, 2), dtype=np.int64)
        yield self._edges[cut:]


def _recorded_blocks(sizes):
    """``streaming._edge_blocks``, noting in ``sizes`` the length of each block it yields."""
    edge_blocks = streaming._edge_blocks

    def blocks(source, n=None):
        for block in edge_blocks(source, n):
            sizes.append(len(block))
            yield block

    return blocks


def _same_run(got, want):
    assert got.estimate == want.estimate
    _same_state(got.state, want.state)
    assert got.passes_used == want.passes_used


def test_stream_results_do_not_depend_on_where_arrays_end():
    edges = gnp_edges(150, 0.4, np.random.default_rng(131))
    assert len(edges) > streaming._STREAM_BLOCK + 5
    sizes = []
    with patch.object(streaming, "_edge_blocks", _recorded_blocks(sizes)):
        for seed, n in itertools.product(range(3), (None, 150)):
            got = stream_estimate(_CutStream(edges), 16, seed=seed, n=n)
            _same_run(got, stream_estimate(MemoryEdgeStream(edges), 16, seed=seed, n=n))
    assert sizes and all(1 <= k <= streaming._STREAM_BLOCK for k in sizes)


def _chunk_starts(data, size):
    """The byte offsets at which a file stream starts its chunks of
    ``data``, an edge list whose first line is an edge, read in chunks of
    ``size`` bytes."""
    starts, at = [], data.index(b"\n") + 1  # the first edge's line is read alone
    while at < len(data):
        starts.append(at)
        at = data.find(b"\n", at + size - 1) + 1 or len(data)
    return starts


@pytest.mark.parametrize("chunk", [64, 4096])
def test_file_results_do_not_depend_on_where_chunks_end(tmp_path, chunk):
    edges = gnp_edges(150, 0.4, np.random.default_rng(137))
    path = tmp_path / "g.edges"

    def run(edges, seed=0, strict=False):
        """The memory stream's run or error, once the file stream's equals it."""
        path.write_text("".join(f"{u} {v}\n" for u, v in edges))
        got = _outcome(stream_estimate, FileEdgeStream(path), 16, seed=seed, strict=strict)
        want = _outcome(stream_estimate, MemoryEdgeStream(edges), 16, seed=seed, strict=strict)
        if isinstance(want, tuple):
            assert got == want
        else:
            _same_run(got, want)
        return want

    sizes = []
    with (
        patch.object(graph, "_CHUNK_BYTES", chunk),
        patch.object(streaming, "_edge_blocks", _recorded_blocks(sizes)),
    ):
        for seed in range(3):
            assert not isinstance(run(edges, seed), tuple)
        # A bad edge as the first line of a chunk: a self-loop, and a
        # repeat of the edge that ends the chunk before.
        data = path.read_bytes()
        starts = _chunk_starts(data, chunk)
        assert len(starts) > 2
        line_ends = np.flatnonzero(np.frombuffer(data, dtype=np.uint8) == 10) + 1
        for start in (starts[1], starts[len(starts) // 2]):
            k = int(line_ends.searchsorted(start)) + 1  # the edges before the chunk
            for bad in ((5, 5), edges[k - 1][::-1]):
                assert isinstance(run(edges[:k] + [bad] + edges[k:], strict=True), tuple)
                run(edges[:k] + [bad] + edges[k:])
    assert sizes and all(1 <= k <= streaming._STREAM_BLOCK for k in sizes)
