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
from math import ceil, isqrt, log

import numpy as np

from ._rng import require_seed
from .chain_core import as_prob_vector, as_transition_matrix, _as_subset
from .config import Constants, DEFAULT_CONSTANTS
from .errors import BadArgs, BadNu, TrajectoryAlphabetMismatch


@dataclass(frozen=True)
class Trajectory:
    """Finite state sequence over {0, ..., d-1}.

    states is read-only; only a read-only int64 array owning its data is
    kept uncopied.
    """

    d: int
    states: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.states, dtype=np.int64)
        if arr.ndim != 1 or arr.shape[0] < 1:
            raise BadArgs("trajectory must contain at least one state")
        if arr.min() < 0 or arr.max() >= self.d:
            raise TrajectoryAlphabetMismatch(
                f"states outside [0, {self.d})"
            )
        if arr.flags.writeable or not arr.flags.owndata:
            arr = arr.copy()
            arr.setflags(write=False)
        object.__setattr__(self, "states", arr)

    def __len__(self) -> int:
        return int(self.states.shape[0])


# Geometry of simulate's lockstep phase: a window of BLOCKS * BLOCK_STEPS
# uniforms, and GUIDE buckets per row of the guide table. On one core of a
# shared 2-CPU host, the ten budget-length trajectories of the acceptance
# corpus took 0.79-1.15 s with 512 to 2048 blocks of 128 to 512 steps
# (1024 x 256: 0.91 s), against 2.1 s for the per-step loop.
BLOCKS = 1024
BLOCK_STEPS = 256
GUIDE = 1024


def simulate(P, mu, m: int, seed: int) -> Trajectory:
    """Ancestral sampling of m states from (P, mu), deterministic given seed.

    Step t maps the t-th uniform u of the seeded stream to the next state
    bisect_right(cum[s], u), where cum[s] is the cumulative row of the
    current state s. Each window of BLOCKS * BLOCK_STEPS uniforms runs in
    two phases:

    - lockstep: the window is cut into blocks of at most BLOCK_STEPS steps
      that all advance together, each guessed to start from the window's
      first state, which is right for the first block;
    - repair: the blocks are visited in order, and a block whose true start
      differs from its guess is stepped one state at a time until its path
      meets the guessed one. Both paths apply the same map to the same
      uniforms, so from there on the guess is the true path.

    The states are those of stepping the whole trajectory one at a time.
    """
    P = as_transition_matrix(P)
    mu = as_prob_vector(mu)
    if mu.d != P.d:
        raise BadArgs(f"initial law of length {mu.d} for a {P.d}-state chain")
    if m < 1:
        raise BadArgs(f"m={m} must be >= 1")
    rng = np.random.default_rng(require_seed(seed))
    d = P.d
    cum = np.cumsum(P.entries, axis=1)
    # guard against downward float drift; with cum[s, -1] >= 1 > u every
    # next state bisect_right(cum[s], u) is at most d - 1
    cum[:, -1] = np.maximum(cum[:, -1], 1.0)
    rows = cum.tolist()
    flat_cum = cum.ravel()
    # A lane in state s holds the flat index s*d + a of its candidate next
    # state a. guide[k*d + s] is that index for the first candidate of a u in
    # bucket k = floor(u * GUIDE), a = #{cum[s] <= k / GUIDE}, so a only ever
    # moves up to bisect_right(cum[s], u).
    lo = np.array([np.searchsorted(c, np.arange(GUIDE) / GUIDE, side="right") for c in cum])
    guide = (lo + d * np.arange(d)[:, None]).T.ravel()
    column = np.tile(np.arange(d), d)
    states = np.empty(m, dtype=np.int64)
    s = states[0] = int(rng.choice(d, p=mu.entries))
    pos = 1
    while pos < m:
        span = min(BLOCKS * BLOCK_STEPS, m - pos)
        u = rng.random(span)
        # a short window gets about sqrt(span) blocks of sqrt(span) steps:
        # each lockstep step costs numpy call overhead whatever its width
        # (m = 1000 took 3.0 ms with 256-step blocks, 0.9 ms like this)
        steps = min(BLOCK_STEPS, isqrt(span))
        n_blocks = -(-span // steps)
        # uniforms laid out (step, block); the zeros that pad the last block
        # only move it past the window's end, which is discarded
        lanes = np.pad(u, (0, n_blocks * steps - span)).reshape(n_blocks, steps).T.copy()
        # u * GUIDE is exact (a power of two), so the cast is the floor
        buckets = (lanes * GUIDE).astype(np.int64) * d
        guess = np.empty((steps, n_blocks), dtype=np.int64)
        cur = np.full(n_blocks, s, dtype=np.int64)
        for t in range(steps):
            at = guide[buckets[t] + cur]
            while True:
                move = flat_cum[at] <= lanes[t]
                if not move.any():
                    break
                at += move
            cur = guess[t]
            np.take(column, at, out=cur)
        path = states[pos : pos + span]
        path[:] = guess.T.ravel()[:span]
        x = s
        for start in range(0, span, steps):
            stop = min(start + steps, span)
            if x != s:
                _repair(path, u, rows, x, start, stop)
            x = int(path[stop - 1])
        s = x
        pos += span
    states.setflags(write=False)
    return Trajectory(d=d, states=states)


def _repair(path, u, rows, x, start, stop):
    """Overwrite path[start:stop], guessed from a wrong start, with the path
    from state x driven by u[start:stop].

    Compares with the guess after 1, 2, 4, ... steps and stops once they
    agree: the rest of the guess is then already the true path.
    """
    n = 1
    while start < stop:
        end = min(start + n, stop)
        row = rows[x]
        seg = []
        for v in u[start:end].tolist():
            x = bisect_right(row, v)
            seg.append(x)
            row = rows[x]
        met = x == path[end - 1]
        path[start:end] = seg
        if met:
            return
        start = end
        n *= 2


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
        raise BadArgs(f"l={l} must be >= 0")
    rng = np.random.default_rng(require_seed(seed))
    if l == 0:
        return np.empty(0, dtype=np.int64)

    anchors = rng.choice(n, size=l, p=weights / weights.sum())
    counts = np.bincount(anchors, minlength=n)

    # the shortest prefix X[:p], p doubling from 2l up to the last state with
    # a successor, that holds every state's anchor demand
    X = traj.states
    usable = len(X) - 1
    p = min(2 * l, usable)
    while np.any(np.bincount(X[:p], minlength=traj.d)[S_idx] < counts):
        if p == usable:
            return None
        p = min(2 * p, usable)
    successors = np.empty(l, dtype=np.int64)
    for a, i in enumerate(S_idx):
        need = int(counts[a])
        if need:
            pos = np.flatnonzero(X[:p] == i)
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
