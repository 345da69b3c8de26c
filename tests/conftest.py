import json
from pathlib import Path

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


def write_samples(path, d: int, codes) -> None:
    """A samples file of the 0-based codes, in the compact layout the
    trajectory writer uses: json.dumps with sorted keys and no spaces."""
    doc = {"d": int(d), "samples": [int(c) + 1 for c in codes]}
    Path(path).write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
