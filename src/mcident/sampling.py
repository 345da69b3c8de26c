"""Trajectory simulation and conversion of one trajectory into iid samples.

The converter draws anchor states from a distribution nu supported on a
component S, then harvests the successor of each anchored visit from the
trajectory. Each draw is an int64 code: the pair (S[a], S[b]) has code
a*|S| + b and a successor that leaves S has code |S|^2, the order of
InducedDistribution.p. Running out of usable visits is a legitimate outcome
(None), not an exception.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from math import ceil, log

import numpy as np

from .chain_core import ProbVector, as_prob_vector, as_transition_matrix, _as_subset
from .config import Constants, DEFAULT_CONSTANTS
from .errors import BadArgs, BadNu, TrajectoryAlphabetMismatch


@dataclass(frozen=True)
class Trajectory:
    """Finite state sequence with its generating seed and initial law.

    seed and initial are None for trajectories loaded from files.
    """

    d: int
    states: np.ndarray
    seed: int | None = None
    initial: ProbVector | None = None

    def __post_init__(self):
        arr = np.asarray(self.states, dtype=np.int64)
        if arr.ndim != 1 or arr.shape[0] < 1:
            raise BadArgs("trajectory must contain at least one state")
        if arr.min() < 0 or arr.max() >= self.d:
            raise TrajectoryAlphabetMismatch(
                f"states outside [0, {self.d})"
            )
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "states", arr)

    def __len__(self) -> int:
        return int(self.states.shape[0])


def simulate(P, mu, m: int, seed: int) -> Trajectory:
    """Ancestral sampling of m states from (P, mu), deterministic given seed."""
    P = as_transition_matrix(P)
    mu = as_prob_vector(mu)
    if mu.d != P.d:
        raise BadArgs(f"initial law of length {mu.d} for a {P.d}-state chain")
    if m < 1:
        raise BadArgs(f"m={m} must be >= 1")
    rng = np.random.default_rng(seed)
    d = P.d
    cums = []
    for row in P.entries:
        c = np.cumsum(row)
        c[-1] = max(c[-1], 1.0)  # guard against downward float drift
        cums.append(c.tolist())
    out = [int(rng.choice(d, p=mu.entries))]
    s = out[0]
    last = d - 1
    remaining = m - 1
    chunk = 1 << 20
    while remaining > 0:
        k = min(chunk, remaining)
        us = rng.random(k).tolist()
        row = cums[s]
        for u in us:
            nxt = bisect_right(row, u)
            s = nxt if nxt <= last else last
            out.append(s)
            row = cums[s]
        remaining -= k
    return Trajectory(d=d, states=np.asarray(out, dtype=np.int64), seed=seed, initial=mu)


def iid_generate(traj: Trajectory, S, nu, l: int, seed: int) -> np.ndarray | None:
    """Turn a trajectory into l iid draws from the induced law on S.

    Stage 1 draws anchors Z_1..Z_l iid from nu (its own RNG stream, so one
    trajectory can be reused across components). Stage 2 pairs the k-th
    anchored visit to each state with its successor in the trajectory. Draws
    are int64 codes a*|S| + b for the pair (S[a], S[b]) of sorted S, and
    |S|^2 for a successor outside S. Returns None when some state has fewer
    usable visits (visits with a recorded successor) than its anchor count
    demands; extending the trajectory can only add usable visits, so None
    never appears for an extension where the same draws succeeded.

    Conditioned on success the output law is the induced distribution of
    the generating chain up to a bias of the order of the failure
    probability, which the trajectory-length budgets keep negligible.
    """
    if not isinstance(traj, Trajectory):
        raise BadArgs("expected a Trajectory")
    S_idx = _as_subset(S, traj.d)
    n = len(S_idx)
    if n == 0:
        raise BadNu("S must be nonempty")
    nu = as_prob_vector(nu)
    if nu.d != traj.d:
        raise BadNu(f"nu of length {nu.d} for a {traj.d}-state trajectory")
    off = np.delete(nu.entries, S_idx)
    if off.size and off.max() > 1e-12:
        raise BadNu("nu must vanish outside S")
    weights = nu.entries[S_idx]
    if weights.min() <= 0.0:
        raise BadNu("nu must be positive on S")
    if l < 0:
        raise BadArgs(f"l={l}")
    if l == 0:
        return np.empty(0, dtype=np.int64)

    rng = np.random.default_rng(seed)
    anchors = rng.choice(n, size=l, p=weights / weights.sum())
    counts = np.bincount(anchors, minlength=n)

    X = traj.states
    successors = np.empty(l, dtype=np.int64)
    for a, i in enumerate(S_idx):
        need = int(counts[a])
        if need == 0:
            continue
        pos = np.flatnonzero(X[:-1] == i)
        if len(pos) < need:
            return None
        successors[anchors == a] = X[pos[:need] + 1]

    local = np.full(traj.d, n, dtype=np.int64)
    local[S_idx] = np.arange(n)
    b = local[successors]
    return np.where(b < n, anchors * n + b, n * n)


def required_visits(
    pi_S_star: float,
    gamma: float,
    delta: float,
    constants: Constants = DEFAULT_CONSTANTS,
) -> int:
    """Visits that make every state of the component observable: the number
    of steps after which each state i has been seen at least pi(i)/2 times
    that many, with probability 1 - delta."""
    if not (0.0 < pi_S_star < 1.0) or gamma <= 0.0 or not (0.0 < delta < 1.0):
        raise BadArgs(f"pi_S_star={pi_S_star}, gamma={gamma}, delta={delta}")
    return int(ceil(constants.c_vis * log(1.0 / (delta * pi_S_star)) / (pi_S_star * gamma)))


def histogram_cap_check(samples, p, delta: float = 0.1) -> bool:
    """Whether every histogram cell satisfies count <= 2 m p(i).

    delta parameterizes the guarantee under which the cap holds (it needs
    m >= c_hist log(d/delta) / p_star); the check itself is deterministic.
    Used for feasibility accounting: under the cap, a quarter of the visits
    to a component convert into iid samples.
    """
    m = len(samples)
    if m == 0:
        return True
    p = np.asarray(p, dtype=float)
    arr = np.asarray(samples, dtype=np.int64)
    if arr.min() < 0 or arr.max() >= len(p):
        return False
    v = np.bincount(arr, minlength=len(p))
    return bool(np.all(v <= 2.0 * m * p))


def histogram_cap_sample_size(
    support: int, p_star: float, delta: float, constants: Constants = DEFAULT_CONSTANTS
) -> int:
    """Sample size making the histogram cap hold with probability 1 - delta."""
    if support < 1 or not (0.0 < p_star <= 1.0) or not (0.0 < delta < 1.0):
        raise BadArgs(f"support={support}, p_star={p_star}, delta={delta}")
    return int(ceil(constants.c_hist * log(support / delta) / p_star))
