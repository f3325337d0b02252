import numpy as np
import pytest

from trisample import Graph
from trisample.samplers import OPTIMAL, SamplerSpec, draw_vertices

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


def _optimal_spec(weights):
    """An optimal sampler over integer first-stage weights (T_i), one per vertex."""
    weights = np.asarray(weights)
    g = Graph.from_edges([], n=len(weights))
    return SamplerSpec(kind=OPTIMAL, graph=g, _p_weights=weights, _p_total=int(weights.sum()))


def _random_weights(rng):
    """1..39 weights in 0..4, about 30% zero, with a positive total."""
    n = int(rng.integers(1, 40))
    weights = rng.integers(0, 5, size=n) * (rng.random(n) < 0.7)
    weights[rng.integers(n)] += 1
    return weights


@pytest.mark.parametrize("dtype", [np.int64, np.uint8, np.uint16])
def test_weighted_pick_equals_weighted_choice_pick_for_pick(dtype):
    # The weighted pick is optimal's first stage; a batch split over calls
    # draws what single weighted_choice calls draw, whatever the weight type.
    rng = np.random.default_rng(5)
    for seed in range(100):
        weights = _random_weights(rng).astype(dtype)
        n = len(weights)
        mine, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        spec = _optimal_spec(weights)
        picked = np.concatenate([draw_vertices(spec, mine, size) for size in (1, 7, 30)])
        assert picked.tolist() == [weighted_choice(range(n), weights, ref)[0] for _ in range(38)]
        assert mine.bit_generator.state == ref.bit_generator.state


def test_weighted_pick_ignores_interleaved_zero_weights():
    rng = np.random.default_rng(6)
    for seed in range(100):
        weights = _random_weights(rng)
        # A zero before every weight moves vertex v to 2v + 1 and no pick.
        padded = np.zeros(2 * len(weights), dtype=weights.dtype)
        padded[1::2] = weights
        a = draw_vertices(_optimal_spec(weights), np.random.default_rng(seed), 38)
        b = draw_vertices(_optimal_spec(padded), np.random.default_rng(seed), 38)
        assert b.tolist() == (2 * a + 1).tolist()
