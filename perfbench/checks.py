"""Correctness checks made apart from the program.

Every check recomputes what it needs from the transition matrices with numpy
and scipy (stationary laws, eigenvalues, the written-out cut LP) and returns
a list of problems, empty when the output is correct.
"""

from __future__ import annotations

import json

import numpy as np


def stationary(P: np.ndarray) -> np.ndarray:
    """Stationary law of an irreducible chain: least-squares solution of
    pi (P - I) = 0 with sum(pi) = 1."""
    d = P.shape[0]
    A = np.vstack([P.T - np.eye(d), np.ones((1, d))])
    b = np.zeros(d + 1)
    b[-1] = 1.0
    pi = np.linalg.lstsq(A, b, rcond=None)[0]
    return pi / pi.sum()


def spectral_gap(P: np.ndarray) -> float:
    """1 - second largest eigenvalue of a reversible chain, from the
    symmetrized matrix D^1/2 P D^-1/2."""
    root = np.sqrt(stationary(P))
    sym = root[:, None] * P / root[None, :]
    lam = np.linalg.eigvalsh((sym + sym.T) / 2.0)
    return float(1.0 - lam[-2])


def distance(P: np.ndarray, Pbar: np.ndarray) -> float:
    """1 - spectral radius of the entrywise geometric mean, by eigvals."""
    rho = float(np.max(np.abs(np.linalg.eigvals(np.sqrt(P * Pbar)))))
    return min(max(1.0 - rho, 0.0), 1.0)


def far_pair(P: np.ndarray, Pbar: np.ndarray, eps: float) -> list[str]:
    """The far partner is eps-far and its stationary law lies within ratio
    distance eps/2 of the reference's."""
    problems = []
    dist = distance(P, Pbar)
    if dist < eps - 1e-9:
        problems.append(f"far partner at distance {dist:.6f} < eps {eps}")
    ratio = float(np.abs(stationary(P) / stationary(Pbar) - 1.0).max())
    if ratio > eps / 2.0 + 1e-9:
        problems.append(f"stationary ratio distance {ratio:.6f} > eps/2")
    return problems


def frequency_tolerance(P: np.ndarray, m: int) -> np.ndarray:
    """Six standard deviations of the visit frequencies of a stationary
    trajectory of length m, from the bound Var <= 2 pi (1 - pi) / (gap m)
    on the asymptotic variance of a reversible chain."""
    pi = stationary(P)
    return 6.0 * np.sqrt(2.0 * pi * (1.0 - pi) / (spectral_gap(P) * m))


def frequencies(states: np.ndarray, pi: np.ndarray, tol: np.ndarray) -> list[str]:
    """Visit frequencies of a trajectory lie within tol of pi."""
    freq = np.bincount(states, minlength=len(pi)) / len(states)
    worst = np.abs(freq - pi) / tol
    if worst.max() > 1.0:
        i = int(worst.argmax())
        return [f"state {i} visited {freq[i]:.5f} of the time, stationary {pi[i]:.5f} "
                f"(tolerance {tol[i]:.5f})"]
    return []


def verdict_rates(accepts: int, matching: int, rejects: int, far: int,
                  floor: float = 0.6) -> list[str]:
    """Matching chains accepted and far chains rejected at a rate >= floor."""
    problems = []
    if matching and accepts < floor * matching:
        problems.append(f"accepted {accepts}/{matching} matching trajectories")
    if far and rejects < floor * far:
        problems.append(f"rejected {rejects}/{far} far trajectories")
    return problems


def partition(P: np.ndarray, beta: float, components, tail) -> list[str]:
    """Components and tail partition range(d), and every component state
    keeps at least 1 - beta of its outgoing mass inside its component."""
    d = P.shape[0]
    problems = []
    seen = [s for S in components for s in S] + list(tail)
    if sorted(seen) != list(range(d)):
        problems.append(f"components and tail {sorted(seen)} do not partition range({d})")
    for S in components:
        S = list(S)
        kept = P[np.ix_(S, S)].sum(axis=1)
        if kept.min() < 1.0 - beta - 1e-12:
            problems.append(f"component {S} keeps only {kept.min():.6f} of a state's mass")
    return problems


def cut_lp_objective(P: np.ndarray, I) -> float:
    """Optimum of the cut LP on I with every triangle written out, by HiGHS:
    minimize sum_{a<b} (Q + Q^T)_ab x_ab subject to sum 2 pi_a pi_b x_ab = 1,
    x_ab <= x_aw + x_wb for all a < b and w outside {a, b}, x >= 0."""
    from scipy.optimize import linprog
    from scipy.sparse import coo_matrix

    pi = stationary(P)
    Q = pi[:, None] * P
    I = list(I)
    n = len(I)
    a_idx, b_idx = np.triu_indices(n, 1)
    var = -np.ones((n, n), dtype=int)
    var[a_idx, b_idx] = np.arange(len(a_idx))
    var[b_idx, a_idx] = var[a_idx, b_idx]
    gi = np.asarray(I)
    c = (Q + Q.T)[gi[a_idx], gi[b_idx]]
    norm = 2.0 * pi[gi[a_idx]] * pi[gi[b_idx]]
    rows, cols, vals = [], [], []
    r = 0
    for k in range(len(a_idx)):
        a, b = a_idx[k], b_idx[k]
        for w in range(n):
            if w == a or w == b:
                continue
            rows += [r, r, r]
            cols += [k, var[a, w], var[w, b]]
            vals += [1.0, -1.0, -1.0]
            r += 1
    A_ub = coo_matrix((vals, (rows, cols)), shape=(r, len(a_idx))).tocsr() if r else None
    res = linprog(c, A_ub=A_ub, b_ub=np.zeros(r) if r else None,
                  A_eq=norm[None, :], b_eq=[1.0], bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return float(res.fun)


def lp_bound(P: np.ndarray, S, reported: float, reference_objective: float) -> list[str]:
    """The component's reported LP bound pi(S) * objective / 2 matches the
    reference LP objective within 1e-6 relative."""
    expected = float(stationary(P)[list(S)].sum()) * reference_objective / 2.0
    if abs(reported - expected) > 1e-6 * abs(expected):
        return [f"component {list(S)}: LP bound {reported!r}, reference {expected!r}"]
    return []


def distance_value(P: np.ndarray, Pbar: np.ndarray, reported: float) -> list[str]:
    """chain_distance agrees with the eigenvalue distance within 1e-8."""
    expected = distance(P, Pbar)
    if abs(reported - expected) > 1e-8:
        return [f"distance {reported!r}, eigenvalues give {expected!r}"]
    return []


def trajectory_file(path, states: np.ndarray) -> list[str]:
    """The trajectory file holds exactly these 0-based states, written
    1-based."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
        got = np.asarray(doc["states"], dtype=np.int64) - 1
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"trajectory file unreadable: {exc}"]
    if got.shape != states.shape or not np.array_equal(got, states):
        return [f"trajectory file holds {got.shape[0]} states that differ from the "
                f"{states.shape[0]} simulated"]
    return []


def same_bytes(a: bytes, b: bytes) -> list[str]:
    """Two reports written with the same flags are byte-identical."""
    return [] if a == b else ["two test invocations with the same flags wrote different reports"]

