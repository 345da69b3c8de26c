"""Chain constructions for calibration, property checks and tests.

Reversible chains are built either as random walks on symmetric weight
matrices (stationary law proportional to row sums) or as Metropolis chains
for a prescribed target law, which pins the stationary distribution exactly
and lets two chains share it while differing arbitrarily otherwise.
"""

from __future__ import annotations

import numpy as np

from .chain_core import TransitionMatrix, as_prob_vector
from .metrics import chain_distance, ratio_distance
from .chain_core import stationary_distribution


def random_reversible(d: int, rng: np.random.Generator) -> TransitionMatrix:
    """Random walk on a dense symmetric weight matrix; reversible, ergodic."""
    W = rng.uniform(0.05, 1.0, (d, d))
    W = (W + W.T) / 2.0
    return TransitionMatrix(W / W.sum(axis=1, keepdims=True))


def random_irreducible(d: int, rng: np.random.Generator) -> TransitionMatrix:
    """Dense random rows; irreducible and aperiodic, generally not reversible."""
    W = rng.uniform(0.02, 1.0, (d, d))
    return TransitionMatrix(W / W.sum(axis=1, keepdims=True))


def random_target(d: int, rng: np.random.Generator, skew: float = 1.0) -> np.ndarray:
    """Random positive distribution; larger skew spreads the entries more."""
    w = rng.uniform(0.2, 1.0, d) ** skew
    return w / w.sum()


def metropolis(pi, rng: np.random.Generator) -> TransitionMatrix:
    """Metropolis chain for target pi over a random symmetric proposal.

    Reversible with stationary distribution exactly pi.
    """
    pi = as_prob_vector(pi).entries
    d = len(pi)
    G = rng.uniform(0.05, 1.0, (d, d))
    G = (G + G.T) / 2.0
    np.fill_diagonal(G, 0.0)
    deg = G.sum(axis=1).max()
    K = G / (2.0 * deg)  # symmetric, substochastic rows; rest goes to the diagonal
    P = K * np.minimum(1.0, pi[None, :] / pi[:, None])
    np.fill_diagonal(P, 0.0)
    np.fill_diagonal(P, 1.0 - P.sum(axis=1))
    return TransitionMatrix(P)


def _symmetric_scaling(A: np.ndarray, r: np.ndarray, iters: int = 400) -> np.ndarray:
    """diag(x) A diag(x) with prescribed row sums r (symmetric Sinkhorn)."""
    x = np.sqrt(r / A.sum(axis=1))
    for _ in range(iters):
        x = np.sqrt(x * r / (A @ x))
    return x[:, None] * A * x[None, :]


def reversible_with_rowsums(weights: np.ndarray, r: np.ndarray) -> TransitionMatrix:
    """Random walk on symmetric positive weights rescaled so the weighted
    degrees match r; the stationary law is then r / sum(r)."""
    W = _symmetric_scaling(np.asarray(weights, dtype=float), np.asarray(r, dtype=float))
    return TransitionMatrix(W / W.sum(axis=1, keepdims=True))


def far_reversible_pair(
    d: int,
    rng: np.random.Generator,
    distance_min: float,
    ratio_max: float,
    target=None,
):
    """(P, Pbar) reversible with chain_distance >= distance_min and
    stationary ratio distance <= ratio_max.

    Both chains are random walks with degrees matched to the same target
    (Pbar's perturbed by at most ratio_max when it is positive), but with
    anti-correlated edge weights exp(+-2 z), which drives the entrywise
    geometric mean of the kernels down and the distance up.
    """
    floor = 0.01
    for _ in range(200):
        r = target if target is not None else random_target(d, rng)
        r = np.asarray(r, dtype=float)
        Z = rng.normal(size=(d, d))
        Z = (Z + Z.T) / 2.0
        rbar = r
        if ratio_max > 0:
            rbar = r * (1.0 + rng.uniform(-1.0, 1.0, d) * ratio_max * 0.8)
            rbar = rbar / rbar.sum()
        P = reversible_with_rowsums(np.exp(2.0 * Z) + floor, r)
        Pbar = reversible_with_rowsums(np.exp(-2.0 * Z) + floor, rbar)
        pi = stationary_distribution(P).entries
        pibar = stationary_distribution(Pbar).entries
        if ratio_distance(pi, pibar) > max(ratio_max, 1e-6):
            continue
        if chain_distance(P, Pbar) >= distance_min:
            return P, Pbar
    raise RuntimeError(
        f"no pair with distance >= {distance_min} and ratio <= {ratio_max} in 200 tries"
    )


def planted_two_block(
    sizes: tuple[int, int],
    rng: np.random.Generator,
    cross_weight: float = 1e-5,
) -> TransitionMatrix:
    """Two dense blocks joined by edges of weight cross_weight; reversible."""
    d = sizes[0] + sizes[1]
    W = np.full((d, d), cross_weight)
    a = sizes[0]
    Wa = rng.uniform(0.5, 1.0, (a, a))
    Wb = rng.uniform(0.5, 1.0, (d - a, d - a))
    W[:a, :a] = (Wa + Wa.T) / 2.0
    W[a:, a:] = (Wb + Wb.T) / 2.0
    W = (W + W.T) / 2.0
    return TransitionMatrix(W / W.sum(axis=1, keepdims=True))


def hub_and_leaves(n_hub: int, n_leaves: int, rng: np.random.Generator) -> TransitionMatrix:
    """Two dense hub blocks plus leaves tied weakly to both hubs.

    Each leaf splits its outgoing mass between the two hub anchors, so once
    the sparse hub-hub cut is taken the leaf keeps only half of its mass
    inside its side. Leaves carry vanishing stationary mass (their edge
    weights are tiny), so they never make a cut expensive, and they end up
    in the partitioner's tail for any beta above their retention deficit.
    """
    d = 2 * n_hub + n_leaves
    W = np.zeros((d, d))
    h = 2 * n_hub
    Wa = rng.uniform(0.5, 1.0, (n_hub, n_hub))
    Wb = rng.uniform(0.5, 1.0, (n_hub, n_hub))
    W[:n_hub, :n_hub] = (Wa + Wa.T) / 2.0
    W[n_hub:h, n_hub:h] = (Wb + Wb.T) / 2.0
    W[:n_hub, n_hub:h] = 1e-8
    W[n_hub:h, :n_hub] = 1e-8
    for ell in range(h, d):
        W[ell, 0] = W[0, ell] = 2e-4
        W[ell, n_hub] = W[n_hub, ell] = 2e-4
    return TransitionMatrix(W / W.sum(axis=1, keepdims=True))


def complete_uniform(d: int) -> TransitionMatrix:
    return TransitionMatrix(np.full((d, d), 1.0 / d))


def birth_death(d: int, rng: np.random.Generator) -> TransitionMatrix:
    """Random birth-death chain (tridiagonal support); reversible."""
    W = np.zeros((d, d))
    for i in range(d - 1):
        W[i, i + 1] = W[i + 1, i] = rng.uniform(0.2, 1.0)
    for i in range(d):
        W[i, i] = rng.uniform(0.2, 1.0)
    return TransitionMatrix(W / W.sum(axis=1, keepdims=True))
