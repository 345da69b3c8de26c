import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def empirical_transition_matrix(states: np.ndarray, d: int) -> np.ndarray:
    counts = np.zeros((d, d))
    np.add.at(counts, (states[:-1], states[1:]), 1.0)
    rows = counts.sum(axis=1, keepdims=True)
    rows[rows == 0] = 1.0
    return counts / rows
