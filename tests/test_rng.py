import numpy as np
import pytest

from trisample import weighted_choice


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
