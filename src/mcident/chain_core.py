"""Dense transition-matrix types and structural/spectral chain operations.

State spaces are {0, ..., d-1}. A Markov chain is identified with its dense
row-stochastic transition matrix. All operations are pure functions over
immutable inputs and are safe to call concurrently.

Conventions adopted here and relied on elsewhere:

* The spectral gap is 1 - lambda_2 where lambda_2 is the second largest
  *signed* eigenvalue (not the second largest modulus). For strongly
  periodic chains lambda_2 can be negative, so the gap may exceed 1;
  aperiodicity is restored via lazy_version when a chain is near-periodic.
* Irreducibility and reversibility are decided with explicit numerical
  tolerances since exact set membership is meaningless in floating point.
  Irreducibility comes from two breadth-first searches over the support
  graph (entries above SUPPORT_TOL) in numpy; this module, and the
  package's import, load no scipy. Reversibility is detailed balance of
  Q within DETAILED_BALANCE_TOL. Each is decided once per matrix and cached
  as TransitionMatrix.irreducible and .reversible; require_reversible
  reads .reversible.
* Every refused argument raises ChainTestError with a message that says
  what was refused.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import isfinite

import numpy as np

from .errors import ChainTestError

ROW_SUM_TOL = 1e-10
SUPPORT_TOL = 1e-12
DETAILED_BALANCE_TOL = 1e-8


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic d x d matrix over the state space {0, ..., d-1}.

    Entries must lie in [0, 1] and each row must sum to 1 within 1e-10.
    Irreducibility, reversibility, pi and Q = diag(pi) P are
    computed on first use and cached; like entries they are read-only, so
    the cache cannot go stale.
    """

    entries: np.ndarray

    def __post_init__(self):
        arr = np.array(self.entries, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise ChainTestError(f"expected a square matrix, got shape {arr.shape}")
        lo, hi = arr.min(), arr.max()
        if not (isfinite(lo) and isfinite(hi)):
            raise ChainTestError("non-finite entries")
        if lo < -ROW_SUM_TOL or hi > 1.0 + ROW_SUM_TOL:
            raise ChainTestError("entries must lie in [0, 1]")
        rows = arr.sum(axis=1)
        bad = np.abs(rows - 1.0).max()
        if bad > ROW_SUM_TOL:
            raise ChainTestError(f"row sums deviate from 1 by {bad:.3e}")
        object.__setattr__(self, "entries", _frozen_clipped(arr))

    @property
    def d(self) -> int:
        return self.entries.shape[0]

    @cached_property
    def irreducible(self) -> bool:
        """Whether the support graph (entries above SUPPORT_TOL) is strongly
        connected: state 0 reaches every state, and every state reaches 0."""
        supp = _support(self.entries)
        return bool((_bfs_levels(supp) >= 0).all() and (_bfs_levels(supp.T) >= 0).all())

    @cached_property
    def reversible(self) -> bool:
        """Whether the chain is irreducible and detailed balance
        pi(i) P(i,j) = pi(j) P(j,i) holds within DETAILED_BALANCE_TOL."""
        if not self.irreducible:
            return False
        Q = self.Q
        return bool(np.abs(Q - Q.T).max() <= DETAILED_BALANCE_TOL)

    @cached_property
    def stationary(self) -> "ProbVector":
        """Stationary law; see stationary_distribution for the solve."""
        _require_irreducible(self)
        arr = self.entries
        d = self.d
        A = arr.T - np.eye(d)
        A[-1, :] = 1.0
        b = np.zeros(d)
        b[-1] = 1.0
        try:
            pi = np.linalg.solve(A, b)
        except np.linalg.LinAlgError:
            pi = np.full(d, np.nan)
        if not np.all(np.isfinite(pi)) or pi.min() <= 0 or np.abs(pi @ arr - pi).max() > 1e-11:
            # Null space of (P^T - I) via SVD; right singular vector of the
            # smallest singular value, normalized to positive total mass.
            _, _, vt = np.linalg.svd(arr.T - np.eye(d))
            pi = vt[-1]
            pi = pi / pi.sum()
        pi = pi / pi.sum()
        residual = np.abs(pi @ arr - pi).max()
        if residual > 1e-10 or pi.min() <= 0:
            raise ChainTestError(f"stationary solve failed (residual {residual:.3e})")
        return ProbVector(pi)

    @property
    def pi(self) -> np.ndarray:
        return self.stationary.entries

    @cached_property
    def Q(self) -> np.ndarray:
        """Edge measure diag(pi) P: Q(i, j) = pi(i) P(i, j)."""
        Q = self.pi[:, None] * self.entries
        Q.setflags(write=False)
        return Q


@dataclass(frozen=True)
class ProbVector:
    """Probability distribution over {0, ..., d-1}."""

    entries: np.ndarray

    def __post_init__(self):
        arr = np.array(self.entries, dtype=float)
        if arr.ndim != 1 or arr.shape[0] < 1:
            raise ChainTestError(f"expected a vector, got shape {arr.shape}")
        lo, hi = arr.min(), arr.max()
        if not (isfinite(lo) and isfinite(hi)) or lo < -ROW_SUM_TOL:
            raise ChainTestError("entries must be nonnegative")
        if abs(arr.sum() - 1.0) > ROW_SUM_TOL:
            raise ChainTestError(f"mass {arr.sum()!r} != 1")
        object.__setattr__(self, "entries", _frozen_clipped(arr))

    @property
    def d(self) -> int:
        return self.entries.shape[0]


def _frozen_clipped(arr: np.ndarray) -> np.ndarray:
    """arr, an owned copy already checked, clipped to [0, 1] in place and made read-only."""
    np.clip(arr, 0.0, 1.0, out=arr)
    arr.setflags(write=False)
    return arr


def as_transition_matrix(P) -> TransitionMatrix:
    """Coerce an array-like to TransitionMatrix (no-op if already one)."""
    if isinstance(P, TransitionMatrix):
        return P
    return TransitionMatrix(np.asarray(P, dtype=float))


def as_prob_vector(p) -> ProbVector:
    if isinstance(p, ProbVector):
        return p
    return ProbVector(np.asarray(p, dtype=float))


def _support(P: np.ndarray) -> np.ndarray:
    return P > SUPPORT_TOL


def _bfs_levels(supp: np.ndarray) -> np.ndarray:
    """Breadth-first search from state 0 over the boolean adjacency supp:
    level[v] is the length of a shortest path 0 -> v, or -1 where v is
    unreachable.

    The frontier is an index array, and each level gathers only its rows of
    supp, so the whole search reads each row once.
    """
    level = np.full(supp.shape[0], -1, dtype=np.intp)
    level[0] = 0
    frontier = np.zeros(1, dtype=np.intp)
    depth = 0
    while frontier.size:
        depth += 1
        reached = np.logical_or.reduce(supp[frontier]).nonzero()[0]
        frontier = reached[level[reached] < 0]
        level[frontier] = depth
    return level


def require_reversible(P) -> TransitionMatrix:
    """P as a TransitionMatrix once P.reversible holds; raises
    ChainTestError naming which of irreducibility and detailed balance fails."""
    P = as_transition_matrix(P)
    if not P.reversible:
        _require_irreducible(P)
        raise ChainTestError("detailed balance violated")
    return P


def _require_irreducible(P: TransitionMatrix) -> None:
    if not P.irreducible:
        raise ChainTestError("chain is not irreducible")


def stationary_distribution(P) -> ProbVector:
    """Stationary distribution pi of an irreducible chain, pi P = pi.

    Solved as a bordered linear system (one balance equation replaced by the
    normalization sum(pi) = 1) rather than by power iteration, which does not
    converge for periodic chains. Falls back to an SVD null-space solve if
    the direct solve is poorly conditioned. The result satisfies
    ||pi P - pi||_inf <= 1e-10 and is entrywise positive. It is solved once
    per TransitionMatrix and cached as P.stationary, so repeated calls on
    one matrix return the same read-only vector.
    """
    return as_transition_matrix(P).stationary


def time_reversal(P) -> TransitionMatrix:
    """Time reversal diag(pi)^-1 P^T diag(pi); an involution, and equal to P
    exactly when P is reversible."""
    P = as_transition_matrix(P)
    pi = P.pi
    # rev[i, j] = pi[j] P[j, i] / pi[i]
    rev = pi[None, :] * P.entries.T / pi[:, None]
    return TransitionMatrix(rev)


def multiplicative_reversibilization(P) -> TransitionMatrix:
    """P* P: reversible with the same stationary distribution as P."""
    P = as_transition_matrix(P)
    rev = time_reversal(P)
    return TransitionMatrix(rev.entries @ P.entries)


def lazy_version(P, alpha: float) -> TransitionMatrix:
    """alpha I + (1 - alpha) P. Keeps the stationary distribution; ergodic
    for any irreducible P when alpha > 0."""
    P = as_transition_matrix(P)
    if not (0.0 <= alpha <= 1.0):
        raise ChainTestError(f"alpha={alpha}")
    return TransitionMatrix(alpha * np.eye(P.d) + (1.0 - alpha) * P.entries)


def convex_combination(P, Pbar, alpha: float) -> TransitionMatrix:
    """alpha P + (1 - alpha) Pbar, entrywise."""
    P = as_transition_matrix(P)
    Pbar = as_transition_matrix(Pbar)
    if P.d != Pbar.d:
        raise ChainTestError(f"{P.d} != {Pbar.d}")
    if not (0.0 <= alpha <= 1.0):
        raise ChainTestError(f"alpha={alpha}")
    return TransitionMatrix(alpha * P.entries + (1.0 - alpha) * Pbar.entries)


def censor(P, S) -> TransitionMatrix:
    """Watched chain on S: transitions recorded only when the chain is in S.

    Computed in closed form as P_S + P_{S,S^c} (I - P_{S^c})^{-1} P_{S^c,S},
    i.e. the geometric series over excursions through the complement summed
    by one linear solve. I - P_{S^c} is invertible because P is irreducible
    and S is nonempty. The result is row-stochastic, has stationary
    distribution pi|_S / pi(S), and is reversible whenever P is.
    """
    P = as_transition_matrix(P)
    S = _as_subset(S, P.d)
    if len(S) == 0:
        raise ChainTestError("S must be nonempty")
    _require_irreducible(P)
    if len(S) == P.d:
        return P
    comp = np.setdiff1d(np.arange(P.d), S)
    arr = P.entries
    M = np.eye(len(comp)) - arr[np.ix_(comp, comp)]
    X = np.linalg.solve(M, arr[np.ix_(comp, S)])
    watched = arr[np.ix_(S, S)] + arr[np.ix_(S, comp)] @ X
    return _renormalized(watched, tol=1e-9)


def matrix_power(P, k: int) -> TransitionMatrix:
    """P^k by repeated squaring."""
    P = as_transition_matrix(P)
    if k < 1:
        raise ChainTestError(f"k={k} must be >= 1")
    return _renormalized(np.linalg.matrix_power(P.entries, k), tol=1e-9)


def _renormalized(arr: np.ndarray, tol: float) -> TransitionMatrix:
    """Clean float drift: clip tiny negatives and re-sum rows to exactly 1."""
    arr = np.asarray(arr, dtype=float)
    rows = arr.sum(axis=1)
    if np.abs(rows - 1.0).max() > tol or arr.min() < -tol:
        raise ChainTestError(f"row drift exceeds {tol}")
    arr = np.clip(arr, 0.0, None)
    return TransitionMatrix(arr / arr.sum(axis=1, keepdims=True))


def _as_subset(S, d: int) -> np.ndarray:
    """Canonicalize a state subset: sorted unique int array within range."""
    idx = np.unique(np.asarray(list(S), dtype=int)) if not isinstance(S, np.ndarray) else np.unique(S.astype(int))
    if len(idx) and (idx[0] < 0 or idx[-1] >= d):
        raise ChainTestError(f"subset {idx.tolist()} out of range for d={d}")
    return idx


def spectral_gap(P) -> float:
    """1 - lambda_2 for an irreducible reversible chain.

    The chain is symmetrized as D^{1/2} P D^{-1/2} with D = diag(pi) and the
    full spectrum computed. lambda_2 is the second largest signed eigenvalue,
    so the gap exceeds 1 for chains with negative eigenvalues (e.g. the
    2-cycle has spectrum {1, -1} and gap 2).
    """
    P = require_reversible(P)
    if P.d == 1:
        return 1.0
    w = _symmetrized_spectrum(P.entries, P.pi)
    return float(1.0 - w[-2])


def _symmetrized(M: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """D^{1/2} M D^{-1/2}, D = diag(pi), averaged with its transpose to
    absorb rounding.

    For a matrix M self-adjoint under pi (pi(i) M(i,j) = pi(j) M(j,i), as for
    a reversible chain or any of its principal submatrices), the conjugate is
    symmetric and has M's real spectrum; an eigenvector v of it gives the
    right eigenvector v / sqrt(pi) of M. pi need not be normalized.
    """
    root = np.sqrt(pi)
    sym = root[:, None] * M / root[None, :]
    return (sym + sym.T) / 2.0


def _symmetrized_spectrum(M: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of _symmetrized(M, pi)."""
    return np.linalg.eigvalsh(_symmetrized(M, pi))
