"""Distances between distributions and chains, induced laws.

Also holds the two brute-force minima that partition._certify checks a
partition with: min_internal_cut_ratio (component expansion) and
min_escape_ratio (tail leakage). Each enumerates 2^|S| subsets, so
_certify calls them only for d <= partition.CERTIFICATION_LIMIT.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain_core import (
    TransitionMatrix,
    as_prob_vector,
    as_transition_matrix,
    spectral_radius_nonneg,
    _as_subset,
)
from .errors import (
    BadSubset,
    ShapeMismatch,
    ZeroDenominator,
    ZeroMassSubset,
)


def hellinger(p, q) -> float:
    """Hellinger distance.

    The squared distance is computed as 1 - sum(sqrt(p q)), which is stable
    near 0 (the half-sum-of-squares form loses precision there).
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ShapeMismatch(f"{p.shape} vs {q.shape}")
    h2 = 1.0 - float(np.sqrt(p * q).sum())
    return float(np.sqrt(max(h2, 0.0)))


def chain_distance(P, Pbar) -> float:
    """Spectral geometric-mean distance 1 - rho(sqrt(P o Pbar)).

    The Hadamard square-root matrix can be reducible even when both factors
    are irreducible, which is why spectral_radius_nonneg reads the full
    spectrum.
    """
    P = as_transition_matrix(P)
    Pbar = as_transition_matrix(Pbar)
    if P.d != Pbar.d:
        raise ShapeMismatch(f"{P.d} != {Pbar.d}")
    rho = spectral_radius_nonneg(np.sqrt(P.entries * Pbar.entries))
    val = min(max(1.0 - rho, 0.0), 1.0)
    return 0.0 if val < 1e-12 else float(val)


def ratio_distance(pi, pibar) -> float:
    """max_i |pi(i)/pibar(i) - 1|; pibar must be entrywise positive."""
    pi = as_prob_vector(pi).entries
    pibar_arr = as_prob_vector(pibar).entries
    if pi.shape != pibar_arr.shape:
        raise ShapeMismatch(f"{pi.shape} vs {pibar_arr.shape}")
    if pibar_arr.min() <= 0.0:
        raise ZeroDenominator("reference distribution has a zero entry")
    return float(np.abs(pi / pibar_arr - 1.0).max())


@dataclass(frozen=True)
class InducedDistribution:
    """Law of one transition anchored in S, as a probability array in code order.

    With S = (S[0], ..., S[n-1]), code a*n + b is the pair (S[a], S[b]) and
    carries nu(S[a]) P(S[a], S[b]) / nu(S); the last code, n*n, collects
    every transition that leaves S. iid_generate emits the same codes.
    """

    S: tuple
    p: np.ndarray

    def __post_init__(self):
        total = float(self.p.sum())
        if abs(total - 1.0) > 1e-10:
            raise ZeroMassSubset(f"total mass {total!r} != 1")

    @property
    def infinity_mass(self) -> float:
        return float(self.p[-1])


def induced_distribution(P, nu, S) -> InducedDistribution:
    """Law of one transition anchored in S: pairs within S, then leaving S."""
    P = as_transition_matrix(P)
    nu = as_prob_vector(nu)
    if nu.d != P.d:
        raise ShapeMismatch(f"{nu.d} != {P.d}")
    idx = _as_subset(S, P.d)
    if len(idx) == 0:
        raise ZeroMassSubset("empty subset")
    nu_S = float(nu.entries[idx].sum())
    if nu_S <= 0.0:
        raise ZeroMassSubset("nu(S) = 0")
    block = nu.entries[idx, None] * P.entries[np.ix_(idx, idx)] / nu_S
    leave_mass = max(1.0 - block.sum(), 0.0)
    return InducedDistribution(
        S=tuple(int(i) for i in idx), p=np.append(block.ravel(), leave_mass)
    )


def _masks(n_states: int, indices: np.ndarray, include_full: bool = False):
    """Yield membership matrices (chunked) for nonempty subsets of `indices`
    as 0/1 float arrays over the full state space. The subset equal to all of
    `indices` is included only when include_full is set."""
    k = len(indices)
    limit = (1 << k) if include_full else (1 << k) - 1
    chunk = 1 << 14
    for start in range(1, limit, chunk):
        stop = min(start + chunk, limit)
        codes = np.arange(start, stop, dtype=np.int64)
        bits = (codes[:, None] >> np.arange(k)) & 1
        members = np.zeros((len(codes), n_states))
        members[:, indices] = bits
        yield members


def min_internal_cut_ratio(P: TransitionMatrix, S_idx: np.ndarray) -> float:
    """Exact min over nonempty proper R of S of Q(R, S - R) / min(pi(R), pi(S - R)),
    by 2^|S| enumeration (the caller bounds |S|)."""
    pi, Q = P.pi, P.Q
    inside = np.zeros(P.d)
    inside[S_idx] = 1.0
    pi_S = pi[S_idx].sum()
    worst = np.inf
    for m in _masks(P.d, S_idx):
        cross = np.einsum("ki,ij,kj->k", m, Q, inside - m)
        mass = m @ pi
        worst = min(worst, float((cross / np.minimum(mass, pi_S - mass)).min()))
    return worst


def min_escape_ratio(P: TransitionMatrix, T_idx: np.ndarray) -> float:
    """Exact min over nonempty R subseteq T of Q(R, R^c) / pi(R), by 2^|T|
    enumeration (the caller bounds |T|)."""
    pi, Q = P.pi, P.Q
    worst = np.inf
    for m in _masks(P.d, T_idx, include_full=True):
        out = np.einsum("ki,ij,kj->k", m, Q, 1.0 - m)
        mass = m @ pi
        worst = min(worst, float((out / mass).min()))
    return worst


def internal_mass(P, I) -> float:
    """Edge mass retained inside I relative to pi(I): sum_{i,j in I} Q(i,j) / pi(I)."""
    P = as_transition_matrix(P)
    idx = _as_subset(I, P.d)
    if len(idx) == 0:
        raise BadSubset("empty subset")
    return float(P.Q[np.ix_(idx, idx)].sum() / P.pi[idx].sum())
