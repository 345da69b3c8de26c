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
from .errors import BadArgs, BadNu, TrajectoryAlphabetMismatch


def state_dtype(d: int) -> np.dtype:
    """The dtype of the states of a d-state trajectory: the smallest unsigned
    integer type that holds d - 1, uint8 up to d = 256 and uint16 up to
    65 536."""
    return np.min_scalar_type(min(int(d), 2**64) - 1)


@dataclass(frozen=True)
class Trajectory:
    """Finite state sequence over {0, ..., d-1}.

    states is a read-only array of state_dtype(d), one byte per state up to
    d = 256; sample codes stay int64. A read-only array of that dtype owning
    its data is kept uncopied; any other integer array is range-checked,
    then cast. Floats, booleans and objects are refused, not truncated.
    """

    d: int
    states: np.ndarray

    def __post_init__(self):
        # states stay below 2**64 - 1, so the writer's state + 1 fits a uint64
        if not 1 <= self.d <= 2**64 - 1:
            raise BadArgs(f"d={self.d} must be >= 1 and < 2**64")
        arr = np.asarray(self.states)
        if arr.ndim != 1 or arr.shape[0] < 1:
            raise BadArgs("trajectory must contain at least one state")
        if arr.dtype.kind not in "iu":
            raise BadArgs(f"states must be integers, got dtype {arr.dtype}")
        if int(arr.min()) < 0 or int(arr.max()) >= self.d:
            raise TrajectoryAlphabetMismatch(
                f"states outside [0, {self.d})"
            )
        dtype = state_dtype(self.d)
        if arr.dtype != dtype or arr.flags.writeable or not arr.flags.owndata:
            arr = arr.astype(dtype)
            arr.setflags(write=False)
        object.__setattr__(self, "states", arr)

    def __len__(self) -> int:
        return int(self.states.shape[0])


# Geometry of simulate's lockstep phase: a window of BLOCKS * BLOCK_STEPS
# uniforms, and GUIDE buckets per row of the guide table. On one core of a
# shared 2-CPU host, the ten budget-length trajectories of the acceptance
# corpus took 0.28-0.32 s (medians of three) with 512 x 512, 1024 x 256 and
# 2048 x 128, within the spread between runs, against 2.1 s for the
# per-step loop.
BLOCKS = 1024
BLOCK_STEPS = 256
GUIDE = 1024

# States per chunk of iid_generate's scan for anchored visits.
VISIT_CHUNK = 1 << 18


def simulate(P, mu, m: int, seed: int) -> Trajectory:
    """Ancestral sampling of m states from (P, mu), deterministic given seed.

    Step t maps the t-th uniform u of the seeded stream to the next state
    bisect_right(cum[s], u), where cum[s] is the cumulative row of the
    current state s. Each window of BLOCKS * BLOCK_STEPS uniforms is cut
    into blocks of at most BLOCK_STEPS steps, and their paths are worked
    out in three phases:

    - lockstep: all blocks advance together in numpy, each guessed to start
      from the window's first state s, which is right for the first block;
    - re-guess: every later block whose predecessor's guessed end e differs
      from s advances together again, from e. Both paths apply the same map
      to the same uniforms, so once the new path meets the stored one it
      stays on it, and the block takes the new path as computed from e.
      Meetings are looked for after 1, 2, 4, ... steps; the phase stops at
      the first look where no path has met, and the rest keep the path
      from s (on a periodic chain none ever meets);
    - repair: the blocks are visited in order. A block whose true start
      differs from the start its path was computed from is stepped one
      state at a time until it meets a stored path of that block. When it
      meets none (the true path has crossed into a part of a two-block
      chain that no guess reached), the blocks after it are guessed again,
      by the first two phases, from its true end, and their new paths are
      kept next to the old ones. The r-th such restart of a window needs
      2**r blocks since the last, and none is made on a chain where no
      re-guessed path met.

    The states are those of stepping the whole trajectory one at a time.
    They are written straight into an array of state_dtype(d); the lanes of
    the three phases stay int64.
    """
    P = as_transition_matrix(P)
    mu = as_prob_vector(mu)
    if mu.d != P.d:
        raise BadArgs(f"initial law of length {mu.d} for a {P.d}-state chain")
    if m < 1:
        raise BadArgs(f"m={m} must be >= 1")
    rng = np.random.default_rng(require_seed(seed))
    cum = np.cumsum(P.entries, axis=1)
    # guard against downward float drift; with cum[s, -1] >= 1 > u every
    # next state bisect_right(cum[s], u) is at most d - 1
    cum[:, -1] = np.maximum(cum[:, -1], 1.0)
    stepper = _Stepper(cum)
    rows = cum.tolist()
    states = np.empty(m, dtype=state_dtype(P.d))
    s = states[0] = int(rng.choice(P.d, p=mu.entries))
    # arrays of the first window, reused by the others (none is larger):
    # fresh ones cost a page fault every 4 KB
    span = min(BLOCKS * BLOCK_STEPS, max(m - 1, 1))
    size = -(-span // _block_steps(span)) * _block_steps(span)
    draws = np.empty(span)
    work = (np.empty(size), np.empty(size, dtype=np.int64), np.empty(size, dtype=np.int64))
    pos = 1
    while pos < m:
        span = min(BLOCKS * BLOCK_STEPS, m - pos)
        path = states[pos : pos + span]
        u = draws[:span]
        rng.random(out=u)
        _window(stepper, rows, u, path, s, work)
        s = int(path[-1])
        pos += span
    states.setflags(write=False)
    return Trajectory(d=P.d, states=states)


class _Stepper:
    """The step map (s, u) -> bisect_right(cum[s], u), applied with numpy to
    many lanes at once.

    A lane in state s holds the flat index s*d + a of its candidate next
    state a. guide[k*d + s] is that index for the first candidate of a u in
    bucket k = floor(u * GUIDE), a = #{cum[s] <= k / GUIDE}, so a only ever
    moves up to bisect_right(cum[s], u), past the entries of cum[s] strictly
    inside bucket k: at most `passes` of them, the most of any bucket of any
    row.
    """

    def __init__(self, cum: np.ndarray):
        d = len(cum)
        self.d = d
        self.flat_cum = cum.ravel()
        self.column = np.arange(d * d) % d
        # cum * GUIDE is exact (a power of two), and cum[s, a] <= k / GUIDE
        # exactly when ceil(cum[s, a] * GUIDE) <= k
        scaled = cum * GUIDE
        row = np.arange(d)[:, None]
        first = np.minimum(np.ceil(scaled), GUIDE).astype(np.intp) * d + row
        guide = np.bincount(first.ravel(), minlength=(GUIDE + 1) * d)[: GUIDE * d]
        guide = guide.reshape(GUIDE, d).cumsum(axis=0)
        guide += d * row.T
        self.guide = guide.ravel()
        bucket = np.floor(scaled)
        inside = (bucket != scaled) & (bucket < GUIDE)
        self.passes = int(np.bincount((bucket.astype(np.intp) * d + row)[inside]).max(initial=0))

    def step(self, index: np.ndarray, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Next states of the lanes at guide[index] driven by u."""
        at = self.guide.take(index)
        if self.passes:
            at += self.flat_cum.take(at) <= u
        if self.passes > 1:
            # lanes that must move again are rare, and looking for them
            # costs less than moving every lane once more
            while np.count_nonzero(move := self.flat_cum.take(at) <= u):
                at += move
        # every index is in range: mode="wrap" only spares a buffered copy
        return self.column.take(at, out=out, mode="wrap")


def _block_steps(span: int) -> int:
    """Steps per block of a window of span steps."""
    # a short window gets about sqrt(span) blocks of sqrt(span) steps: each
    # lockstep step costs numpy call overhead whatever its width (m = 1000
    # took 3.0 ms with 256-step blocks, 0.9 ms like this)
    return min(BLOCK_STEPS, isqrt(span))


def _window(stepper: _Stepper, rows: list, u: np.ndarray, path: np.ndarray, s: int, work) -> None:
    """Fill path with the len(u) states driven by u from state s; work holds
    three flat arrays (float, int64, int64) large enough for the window."""
    span = len(u)
    steps = _block_steps(span)
    n_blocks = -(-span // steps)
    full = span // steps
    rest = span - full * steps
    lanes, buckets, guess = (a[: steps * n_blocks].reshape(steps, n_blocks) for a in work)
    # uniforms laid out (step, block); the zeros that pad the last block only
    # move it past the window's end, which is discarded
    lanes[:, :full] = u[: full * steps].reshape(full, steps).T
    lanes[:rest, full:] = u[full * steps :, None]
    lanes[rest:, full:] = 0.0
    # u * GUIDE is exact, so the cast is the floor
    np.multiply(lanes, GUIDE, out=buckets, casting="unsafe")
    buckets *= stepper.d
    origin, meets = _speculate(stepper, lanes, buckets, s, guess)
    path[: full * steps].reshape(full, steps)[...] = guess[:, :full].T
    path[full * steps :] = guess[:rest, full:].ravel()
    # (first block, paths, starts they were computed from) of every guess,
    # the guess each block takes (-1: path holds it already), and the start
    # and end of each block's path
    guesses = [(0, guess, origin)]
    taken = np.zeros(n_blocks, dtype=np.intp)
    origin = origin.copy()
    ends = guess[-1].copy()
    restarts = last = 0
    # blocks whose path starts elsewhere than the end of the one before,
    # last one first; worked out again when the blocks after one change
    wrong = (np.flatnonzero(origin[1:] != ends[:-1]) + 1).tolist()[::-1]
    while wrong:
        k = wrong.pop()
        x = int(ends[k - 1])
        if x == origin[k]:
            continue
        start = k * steps
        stop = min(start + steps, span)
        same = [i for i, (f, _, o) in enumerate(guesses) if o[k - f] == x]
        if same:
            i, k_from = same[-1], k
        else:
            taken[k] = -1
            met = _repair(path, u, rows, x, start, stop, [g[:, k - f] for f, g, _ in guesses])
            if met:
                at, i = met
                f, g, _ = guesses[i]
                path[at:stop] = g[at - start : stop - start, k - f]
            ends[k] = path[stop - 1]
            if not met:
                if not (meets and stop < span and (k + 1 - last) >> restarts):
                    # no restart: only block k changed, and with it the
                    # start that block k + 1 needs
                    if stop < span and (not wrong or wrong[-1] != k + 1):
                        wrong.append(k + 1)
                    continue
                restarts += 1
                last = k + 1
                guess = np.empty((steps, n_blocks - last), dtype=np.int64)
                origin_new, _ = _speculate(stepper, lanes[:, last:], buckets[:, last:], ends[k], guess)
                guesses.append((last, guess, origin_new))
                i = len(guesses) - 1
            k_from = k + 1
        # the blocks from k_from on take guess i
        f, g, o = guesses[i]
        taken[k_from:] = i
        origin[k_from:] = o[k_from - f :]
        ends[k_from:] = g[-1, k_from - f :]
        wrong = (np.flatnonzero(origin[k + 1 :] != ends[k:-1]) + k + 1).tolist()[::-1]
    for i, (f, g, _) in enumerate(guesses[1:], 1):
        blocks = np.flatnonzero(taken == i)
        whole = blocks[blocks < full]
        path[: full * steps].reshape(full, steps)[whole] = g[:, whole - f].T
        if rest and taken[-1] == i:
            path[full * steps :] = g[:rest, -1]


def _speculate(stepper: _Stepper, lanes: np.ndarray, buckets: np.ndarray, x: int, guess: np.ndarray):
    """Lockstep and re-guess phases for the blocks (columns) of lanes, the
    first of which starts from x: fills guess with their paths (step,
    block); returns the start each path was computed from, and whether some
    re-guessed path met."""
    steps, n_blocks = lanes.shape
    cur = np.full(n_blocks, x, dtype=np.int64)
    for t in range(steps):
        cur = stepper.step(buckets[t] + cur, lanes[t], guess[t])
    origin = np.full(n_blocks, x, dtype=np.int64)
    todo = np.flatnonzero(guess[-1, :-1] != x) + 1
    begin = cur = guess[-1, todo - 1]
    trail = np.empty_like(guess)
    meets = False
    t = 0
    while todo.size and t < steps:
        look = min(2 * t + 1, steps)
        for t in range(t, look):
            cur = stepper.step(buckets[t, todo] + cur, lanes[t, todo])
            trail[t, todo] = cur
        t = look
        met = cur == guess[t - 1, todo]
        if not met.any():
            break
        meets = True
        done = todo[met]
        guess[:t, done] = trail[:t, done]
        origin[done] = begin[met]
        todo, begin, cur = todo[~met], begin[~met], cur[~met]
    return origin, meets


def _repair(path, u, rows, x, start, stop, stored):
    """Overwrite path[start:stop] with the path from state x driven by
    u[start:stop], up to where it meets one of the stored paths of the block
    (arrays aligned with path[start:stop]): (that index, which stored path),
    or None when it meets none.

    Compares after 1, 2, 4, ... steps: once the paths agree, they agree to
    the end of the block.
    """
    draws = u[start:stop].tolist()
    seg = []
    step = seg.append
    row = rows[x]
    done = 0
    while done < len(draws):
        end = min(2 * done + 1, len(draws))
        for v in draws[done:end]:
            x = bisect_right(row, v)
            step(x)
            row = rows[x]
        done = end
        for i, g in enumerate(stored):
            if g[done - 1] == x:
                path[start : start + done] = seg
                return start + done, i
    path[start:stop] = seg
    return None


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
    if l > len(traj) - 1:  # more anchors than usable visits: draw nothing
        return None

    anchors = rng.choice(n, size=l, p=weights / weights.sum())
    counts = np.bincount(anchors, minlength=n)
    times = _visit_times(traj, S_idx, counts)
    if times is None:
        return None
    # the j-th anchor on S[a], in draw order, takes the j-th visit to S[a]:
    # the anchors grouped by a stable sort (a radix sort on the small dtype)
    by_draw = np.argsort(anchors.astype(state_dtype(n)), kind="stable")
    successors = np.empty(l, dtype=np.int64)
    successors[by_draw] = traj.states[times + 1]

    local = np.full(traj.d, n, dtype=np.int64)
    local[S_idx] = np.arange(n)
    b = local[successors]
    return np.where(b < n, anchors * n + b, n * n)


def _visit_times(traj: Trajectory, S_idx: np.ndarray, counts: np.ndarray) -> np.ndarray | None:
    """Times of the first counts[a] visits to S_idx[a] that have a
    successor, grouped by a and in time order within a group; None when
    some state has fewer.

    The states are read VISIT_CHUNK at a time, up to the chunk that
    completes every demand. Each chunk is counted, grouped by state with a
    stable sort (a radix sort on the narrow dtype), and its first visits to
    every state still short of its demand are taken, so no temporary is
    longer than a chunk or than d, however long the trajectory.
    """
    X = traj.states
    usable = len(X) - 1
    need = np.zeros(traj.d, dtype=np.int64)
    need[S_idx] = counts
    # the next free place in each state's group
    slot = np.zeros(traj.d, dtype=np.int64)
    slot[S_idx] = np.cumsum(counts) - counts
    times = np.empty(int(counts.sum()), dtype=np.int64)
    for start in range(0, usable, VISIT_CHUNK):
        chunk = X[start : min(start + VISIT_CHUNK, usable)]
        seen = np.bincount(chunk, minlength=traj.d)
        order = np.argsort(chunk, kind="stable")
        # the first take[s] places of each state's run in the sorted chunk
        take = np.minimum(seen, need)
        lead = np.arange(int(take.sum())) - np.repeat(np.cumsum(take) - take, take)
        at = np.repeat(np.cumsum(seen) - seen, take) + lead
        times[np.repeat(slot, take) + lead] = order[at] + start
        need -= take
        if not need.any():
            return times
        slot += take
    return None


# Multiplier of the visit-count bound of required_visits, a lemma of the
# analysis that no pipeline run evaluates (acceptance criterion 9); 40 gives an
# event frequency >= 1 - delta on the calibration corpus of
# scripts/calibrate_constants.py (20 reversible chains, d <= 8), which
# sweeps 10, 20 and 40.
C_VIS = 40.0


def required_visits(pi_S_star: float, gamma: float, delta: float, c_vis: float = C_VIS) -> int:
    """Visits that make every state of the component observable: the number
    of steps after which each state i has been seen at least pi(i)/2 times
    that many, with probability 1 - delta."""
    if not (0.0 < pi_S_star < 1.0) or gamma <= 0.0 or not (0.0 < delta < 1.0):
        raise BadArgs(f"pi_S_star={pi_S_star}, gamma={gamma}, delta={delta}")
    return int(ceil(c_vis * log(1.0 / (delta * pi_S_star)) / (pi_S_star * gamma)))
