import json
from pathlib import Path

import numpy as np
import pytest

from mcident import corpus as cp
from mcident import metrics as mt

CORPUS_EPS = 0.3


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


def far_blocked_pair(sizes, rng, distance_min, cross=1e-5, spread=2.0, tries=100):
    """Two-block reversible pair, anti-correlated inside the blocks, same
    stationary law, chain distance at least distance_min."""
    d = sum(sizes)
    a = sizes[0]
    mask = np.zeros((d, d), bool)
    mask[:a, :a] = True
    mask[a:, a:] = True
    for _ in range(tries):
        r = cp.random_target(d, rng, skew=0.5)
        Z = rng.normal(size=(d, d))
        Z = (Z + Z.T) / 2.0
        P = cp.reversible_with_rowsums(np.where(mask, np.exp(spread * Z) + 0.01, cross), r)
        Pb = cp.reversible_with_rowsums(np.where(mask, np.exp(-spread * Z) + 0.01, cross), r)
        if mt.chain_distance(P, Pb) >= distance_min:
            return P, Pb
    raise RuntimeError("no blocked pair found")


@pytest.fixture(scope="session")
def corpus():
    """The acceptance corpus: five (name, reference, eps-far partner) chains
    at eps = 0.3, d in {4, 6, 8}."""
    rng = np.random.default_rng(2024)
    entries = []
    far, ref = cp.far_reversible_pair(
        4, rng, CORPUS_EPS, 0.15, target=np.array([0.05, 0.15, 0.30, 0.50])
    )
    entries.append(("A-d4-skewed", ref, far))
    far, ref = cp.far_reversible_pair(
        4, rng, CORPUS_EPS, 0.0, target=np.array([0.06, 0.14, 0.35, 0.45])
    )
    entries.append(("B-d4-shared-law", ref, far))
    far, ref = cp.far_reversible_pair(
        6, rng, CORPUS_EPS, 0.15, target=np.array([0.09, 0.11, 0.13, 0.15, 0.24, 0.28])
    )
    entries.append(("C-d6", ref, far))
    far, ref = far_blocked_pair((3, 3), rng, CORPUS_EPS)
    entries.append(("D-d6-two-blocks", ref, far))
    far, ref = cp.far_reversible_pair(
        8, rng, CORPUS_EPS, 0.15,
        target=np.array([0.10, 0.10, 0.11, 0.12, 0.13, 0.13, 0.15, 0.16]),
    )
    entries.append(("E-d8", ref, far))
    return entries
