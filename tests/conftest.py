import itertools

import numpy as np
import pytest

from mcident.partition import cut_metric_ratio


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def empirical_transition_matrix(states: np.ndarray, d: int) -> np.ndarray:
    counts = np.zeros((d, d))
    np.add.at(counts, (states[:-1], states[1:]), 1.0)
    rows = counts.sum(axis=1, keepdims=True)
    rows[rows == 0] = 1.0
    return counts / rows


def brute_min_ratio(P, I) -> float:
    """Minimum of cut_metric_ratio over every nonempty proper subset of I."""
    I = list(I)
    return min(
        cut_metric_ratio(P, S, I)
        for r in range(1, len(I))
        for S in itertools.combinations(I, r)
    )
