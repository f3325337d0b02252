import numpy as np
import pytest

from trisample.samplers import weighted_pick

from trial_reference import weighted_choice


def test_weighted_choice_ignores_input_type_and_zero_weights():
    weights = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3]
    values = [10 * k for k in range(len(weights))]
    # The same positive weights with zeros interleaved; zero entries carry -1.
    padded = []
    for v, w in zip(values, weights):
        padded += [(-1, 0), (v, w)] if v % 20 else [(v, w)]
    padded_values, padded_weights = (list(x) for x in zip(*padded))
    total = sum(weights)
    for seed in range(300):
        rngs = [np.random.default_rng(seed) for _ in range(4)]
        picks = [
            weighted_choice(values, weights, rngs[0]),
            weighted_choice(np.array(values), np.array(weights, dtype=np.uint8), rngs[1]),
            weighted_choice(padded_values, padded_weights, rngs[2]),
        ]
        rngs[3].integers(total)  # exactly one variate per draw
        assert picks[1] == picks[0] and picks[2] == picks[0]
        assert picks[0][2] == total
        states = [r.bit_generator.state for r in rngs]
        assert all(state == states[0] for state in states)


def test_weighted_choice_needs_positive_total():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="positive total"):
        weighted_choice([1, 2], [0, 0], rng)
    with pytest.raises(ValueError, match="positive total"):
        weighted_choice([], np.array([], dtype=np.int64), rng)


def _random_runs(rng, runs):
    """Weight runs of length 0..6 back to back, some all zero, with their bounds."""
    lengths = rng.integers(0, 7, size=runs)
    weights = rng.integers(0, 5, size=int(lengths.sum())) * (rng.random(int(lengths.sum())) < 0.7)
    stops = np.cumsum(lengths)
    return weights, stops - lengths, stops


def _reference_picks(weights, starts, stops, rng):
    """weighted_choice run by run; None for a run with no positive weight."""
    picks = []
    for a, b in zip(starts.tolist(), stops.tolist()):
        run = weights[a:b].tolist()
        picks.append(weighted_choice(range(a, b), run, rng) if any(run) else None)
    return picks


@pytest.mark.parametrize("dtype", [np.int64, np.uint8, np.uint16])
def test_weighted_pick_equals_weighted_choice_pick_for_pick(dtype):
    rng = np.random.default_rng(5)
    for seed in range(100):
        weights, starts, stops = _random_runs(rng, 40)
        weights = weights.astype(dtype)
        mine, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        live, picked, totals = weighted_pick(weights, starts, stops, mine)
        want = _reference_picks(weights, starts, stops, ref)
        assert live.tolist() == [w is not None for w in want]
        assert picked.tolist() == [w[0] for w in want if w is not None]
        assert totals.tolist() == [w[2] for w in want if w is not None]
        assert mine.bit_generator.state == ref.bit_generator.state


def test_weighted_pick_ignores_interleaved_zero_weights():
    rng = np.random.default_rng(6)
    for seed in range(100):
        weights, starts, stops = _random_runs(rng, 30)
        # Put a zero before every weight: position p moves to 2p + 1.
        padded = np.zeros(2 * len(weights), dtype=weights.dtype)
        padded[1::2] = weights
        a = weighted_pick(weights, starts, stops, np.random.default_rng(seed))
        b = weighted_pick(padded, 2 * starts, 2 * stops, np.random.default_rng(seed))
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(2 * a[1] + 1, b[1])
        assert np.array_equal(a[2], b[2])


def test_weighted_pick_dead_runs_draw_nothing():
    rng = np.random.default_rng(7)
    state = rng.bit_generator.state
    weights = np.array([0, 0, 0, 5, 0], dtype=np.int64)
    live, picked, totals = weighted_pick(weights, np.array([0, 2, 4, 5]), np.array([2, 3, 5, 5]), rng)
    assert live.tolist() == [False, False, False, False]
    assert len(picked) == len(totals) == 0
    assert rng.bit_generator.state == state
    # One live run among dead ones draws exactly one variate.
    live, picked, totals = weighted_pick(weights, np.array([0, 1, 4]), np.array([1, 5, 5]), rng)
    assert live.tolist() == [False, True, False]
    assert picked.tolist() == [3] and totals.tolist() == [5]
    other = np.random.default_rng(7)
    other.integers(5)
    assert rng.bit_generator.state == other.bit_generator.state


def test_weighted_pick_split_across_calls_draws_the_same():
    rng = np.random.default_rng(8)
    for seed in range(50):
        weights, starts, stops = _random_runs(rng, 50)
        whole_rng, split_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        whole = weighted_pick(weights, starts, stops, whole_rng)
        cuts = [0, *sorted(rng.integers(0, 51, size=3).tolist()), 50]
        parts = [
            weighted_pick(weights, starts[a:b], stops[a:b], split_rng)
            for a, b in zip(cuts, cuts[1:])
        ]
        for k in range(3):
            assert np.concatenate([p[k] for p in parts]).tolist() == whole[k].tolist()
        assert split_rng.bit_generator.state == whole_rng.bit_generator.state
