"""Trajectory simulation and conversion of one trajectory into iid samples.

The converter draws anchor states from a distribution nu supported on a
component S, then harvests the successor of each anchored visit from the
trajectory. The anchors are counted, not drawn one by one: one multinomial
draw gives the anchor count of each state of S, and one scan of the
trajectory bins the first that many visits to each state by successor.
That histogram over the codes is the one conversion: the pair
(S[a], S[b]) has code a*|S| + b and a successor that leaves S has code
|S|^2, the order of InducedDistribution.p. identity_test reads the
histogram; iid_generate shuffles it into a sequence of int64 codes.
Running out of usable visits is a legitimate outcome (None), not an
exception.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from math import ceil, isqrt, log

import numpy as np

from ._rng import require_seed
from .chain_core import as_prob_vector, as_transition_matrix, _as_subset
from .errors import ChainTestError


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
            raise ChainTestError(f"d={self.d} must be >= 1 and < 2**64")
        arr = np.asarray(self.states)
        if arr.ndim != 1 or arr.shape[0] < 1:
            raise ChainTestError("trajectory must contain at least one state")
        if arr.dtype.kind not in "iu":
            raise ChainTestError(f"states must be integers, got dtype {arr.dtype}")
        if int(arr.min()) < 0 or int(arr.max()) >= self.d:
            raise ChainTestError(f"states outside [0, {self.d})")
        dtype = state_dtype(self.d)
        if arr.dtype != dtype or arr.flags.writeable or not arr.flags.owndata:
            arr = arr.astype(dtype)
            arr.setflags(write=False)
        object.__setattr__(self, "states", arr)

    def __len__(self) -> int:
        return int(self.states.shape[0])

    def chunks(self) -> Iterable[np.ndarray]:
        """The states as views, VISIT_CHUNK at a time."""
        X = self.states
        return (X[start : start + VISIT_CHUNK] for start in range(0, len(X), VISIT_CHUNK))


@dataclass(frozen=True)
class StateStream:
    """A trajectory of length states over {0, ..., d-1} that is read again
    from its source for every scan: each call chunks() yields its states
    from the first, in consecutive arrays of state_dtype(d). A scan that
    stops early reads only the chunks it needs."""

    d: int
    length: int
    chunks: Callable[[], Iterable[np.ndarray]]

    def __len__(self) -> int:
        return self.length


# Geometry of simulate's lockstep phase: a window of BLOCKS * BLOCK_STEPS
# uniforms, and GUIDE buckets per row of the guide table. On one core of a
# shared 2-CPU host, the ten budget-length trajectories of the acceptance
# corpus took 0.28-0.32 s (medians of three) with 512 x 512, 1024 x 256 and
# 2048 x 128, within the spread between runs, against 2.1 s for the
# per-step loop.
BLOCKS = 1024
BLOCK_STEPS = 256
GUIDE = 1024

# States per view of Trajectory.chunks: the chunks that the scan of anchored
# visits reads from an array.
VISIT_CHUNK = 1 << 14


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
    - repair: one scan finishes the blocks in order. It follows a guess up
      to the next block that guess has wrong, then steps that block one
      state at a time from its true start until it meets a stored path of
      the block, and follows the guess it met from there. When it meets
      none (the true path has crossed into a part of a two-block chain that
      no guess reached), the blocks after it are guessed again, by the
      first two phases, from its true end, and the new guess is kept next
      to the old ones. The r-th such restart of a window needs 2**r blocks
      since the last, and none is made on a chain where no re-guessed path
      met.

    The states are those of stepping the whole trajectory one at a time.
    They are written straight into an array of state_dtype(d); the lanes of
    the three phases stay int64.
    """
    P = as_transition_matrix(P)
    mu = as_prob_vector(mu)
    if mu.d != P.d:
        raise ChainTestError(f"initial law of length {mu.d} for a {P.d}-state chain")
    if m < 1:
        raise ChainTestError(f"m={m} must be >= 1")
    if m > np.iinfo(np.intp).max:  # numpy cannot index that many states
        raise ChainTestError(f"m={m} exceeds the largest array length {np.iinfo(np.intp).max}")
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
    """The step map (s, u) -> bisect_right(cum[s], u) of simulate's d x d
    table of cumulative rows, applied with numpy to many lanes at once.

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
        if self.passes > 1 and np.count_nonzero(move := self.flat_cum.take(at) <= u):
            # lanes that must move again are rare: only they move on, up to
            # passes - 1 more times (many on a row that crowds one bucket)
            lag = np.flatnonzero(move)
            while lag.size:
                at[lag] += 1
                lag = lag[self.flat_cum.take(at[lag]) <= u[lag]]
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
    three flat arrays (float, int64, int64) large enough for the window.

    Every guess is kept as (first block, paths, starts, breaks), where
    breaks lists the blocks whose start in that guess is not its end for
    the block before. path starts out holding the first guess, and one scan
    finishes the blocks in order: block k, whose true start is x, and the
    blocks after it are right in guess cur up to the next block j that cur
    has wrong, k itself when cur starts block k elsewhere than x, else
    cur's first break after k (the window's end when there is none). Blocks
    k .. j - 1 are copied from cur unless cur is the first guess; block j is
    repaired from its true start against every stored guess, all of which
    start at or before j, and the guess it meets, or a restart's new guess,
    becomes cur.
    """
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
    guesses = [(0, guess, origin, (np.flatnonzero(origin[1:] != guess[-1, :-1]) + 1).tolist())]
    _copy_blocks(path, guess, 0, 0, n_blocks, steps)
    k, x, cur = 0, s, 0
    restarts = last = 0
    while k < n_blocks:
        first, g, origin, breaks = guesses[cur]
        if origin[k - first] != x:
            j = k
        else:
            b = bisect_right(breaks, k)
            j = breaks[b] if b < len(breaks) else n_blocks
        if cur:
            _copy_blocks(path, g, first, k, j, steps)
        if j == n_blocks:
            break
        start = j * steps
        stop = min(start + steps, span)
        stored = [h[:, j - f] for f, h, _, _ in guesses]
        met = _repair(path, u, rows, int(path[start - 1]), start, stop, stored)
        if met:
            at, cur = met
            first, g = guesses[cur][:2]
            path[at:stop] = g[at - start : stop - start, j - first]
        elif meets and stop < span and (j + 1 - last) >> restarts:
            # the true path reached states no guess of block j came from:
            # guess the blocks after it again, from its true end
            restarts += 1
            last = j + 1
            g = np.empty((steps, n_blocks - last), dtype=np.int64)
            o, _ = _speculate(stepper, lanes[:, last:], buckets[:, last:], int(path[stop - 1]), g)
            guesses.append((last, g, o, (np.flatnonzero(o[1:] != g[-1, :-1]) + last + 1).tolist()))
            cur = len(guesses) - 1
        k, x = j + 1, int(path[stop - 1])


def _copy_blocks(path: np.ndarray, guess: np.ndarray, first: int, k: int, j: int, steps: int):
    """Write blocks k .. j - 1 of guess, whose first block is first, into path."""
    whole = min(j, len(path) // steps)
    path[k * steps : whole * steps].reshape(-1, steps)[...] = guess[:, k - first : whole - first].T
    if whole < j:
        path[whole * steps :] = guess[: len(path) - whole * steps, whole - first]


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
    (arrays aligned with path[start:stop], the oldest guess first): (that
    index, the first stored path met), or None when it meets none.

    Compares after 1, 2, 4, ... steps: once the paths agree, they agree to
    the end of the block. A stored path computed from x itself is met at
    the first comparison, so a guess that already starts the block at x
    needs no check of its own.
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


def iid_generate(traj: Trajectory | StateStream, S, nu, l: int, seed: int) -> np.ndarray | None:
    """Turn a trajectory into l iid draws from the induced law on S.

    traj is a Trajectory or a StateStream, such as fileio.load_trajectory's;
    the codes are the same either way. Draws are int64 codes a*|S| + b for
    the pair (S[a], S[b]) of sorted S, and |S|^2 for a successor outside S.
    They are the histogram of
    _induced_histogram, with a generator seeded with seed, in a uniform
    random order drawn from that generator after its anchor-count draw: l
    iid draws given their histogram are in a uniform random order.
    Returns None when some state has fewer usable visits (visits with a
    recorded successor) than its anchor count demands; extending the
    trajectory can only add usable visits, so None never appears for an
    extension where the same draws succeeded.

    Conditioned on success the output law is the induced distribution of
    the generating chain up to a bias of the order of the failure
    probability, which the trajectory-length budgets keep negligible.
    """
    rng = np.random.default_rng(require_seed(seed))
    hist, _ = _induced_histogram(traj, S, nu, l, rng)
    if hist is None:
        return None
    return rng.permutation(np.repeat(np.arange(hist.size, dtype=np.int64), hist))


def _induced_histogram(traj, S, nu, l: int, rng: np.random.Generator) -> tuple:
    """The conversion: (the histogram of the l codes over |S|^2 + 1 cells,
    or None when too few usable visits; the prefix read, 1 + the time of
    the last visit the anchors take, or len(traj) - 1 when too few).

    traj is a Trajectory or a StateStream. Checks the arguments, draws the
    anchor count of each state of S from nu with one multinomial draw from
    rng (its own stream, so one trajectory can be reused across
    components), and bins the first that many visits to each state by
    successor with one _scan_visits. Nothing is drawn or read when l
    exceeds the usable visits.
    """
    if not isinstance(traj, (Trajectory, StateStream)):
        raise ChainTestError("expected a Trajectory")
    S_idx = _as_subset(S, traj.d)
    n = len(S_idx)
    if n == 0:
        raise ChainTestError("S must be nonempty")
    nu = as_prob_vector(nu)
    if nu.d != traj.d:
        raise ChainTestError(f"nu of length {nu.d} for a {traj.d}-state trajectory")
    off = np.delete(nu.entries, S_idx)
    if off.size and off.max() > 1e-12:
        raise ChainTestError("nu must vanish outside S")
    weights = nu.entries[S_idx]
    if weights.min() <= 0.0:
        raise ChainTestError("nu must be positive on S")
    if l < 0:
        raise ChainTestError(f"l={l} must be >= 0")
    scan = None
    if l <= len(traj) - 1:  # else more anchors than usable visits
        counts = rng.multinomial(l, weights / weights.sum())
        scan = _scan_visits(traj.chunks(), traj.d, S_idx, counts)
    if scan is None:
        return None, len(traj) - 1
    cut, pairs = scan
    return np.append(pairs[:, :-1].ravel(), pairs[:, -1].sum()), int(cut.max(initial=0))


def _scan_visits(chunks: Iterable[np.ndarray], d: int, S_idx: np.ndarray, counts: np.ndarray):
    """(cut, pairs) of the visits the anchors take, the first counts[a]
    visits to S[a] that have a successor: cut[a] is 1 + the time of the
    last of them (0 when counts[a] = 0), and pairs[a, b] counts them by
    successor, S[b] or, for b = |S|, a state outside S. None when some
    state has fewer such visits.

    chunks yields the trajectory's states over {0, ..., d-1} in consecutive
    arrays. They are taken one at a time, up to the chunk that completes
    every demand, and mapped once to their index in S (|S| outside S) in a
    narrow dtype; each chunk is scanned with the last state of the one
    before, so every (state, successor) pair is counted once. A chunk where
    some demand completes is grouped by state with a stable sort (a radix
    sort on the narrow dtype), which gives the time of each completing
    visit, and its pairs are counted again up to those times.
    """
    n = len(S_idx)
    cells = (n + 1) ** 2
    local = np.full(d, n, dtype=state_dtype(n + 1))
    local[S_idx] = np.arange(n)
    need = counts.astype(np.intp)
    cut = np.zeros(n, dtype=np.intp)
    pairs = np.zeros((n, n + 1), dtype=np.intp)
    chunks = iter(chunks)
    at = local[:0]
    start = 0  # the time of at[0]
    while need.any():
        chunk = next(chunks, None)
        if chunk is None:
            return None
        at = np.concatenate((at[-1:], local.take(chunk)))
        code = at[:-1].astype(np.uint16 if cells <= 1 << 16 else np.intp)
        code *= n + 1
        code += at[1:]
        seen = np.bincount(code, minlength=cells).reshape(n + 1, n + 1)[:n]
        visits = seen.sum(axis=1)
        active = need > 0
        done = np.flatnonzero(active & (visits >= need))
        if done.size:
            order = np.argsort(at[:-1], kind="stable")
            last = order[(np.cumsum(visits) - visits + need - 1)[done]]
            cut[done] = start + 1 + last
            # each state takes its visits of the chunk up to limit, which is
            # 0 outside S and for the states whose demand is already met
            limit = np.append(np.where(active, code.size, 0), 0)
            limit[done] = last + 1
            taken = limit.take(at[:-1]) > np.arange(code.size)
            seen = np.bincount(code[taken], minlength=cells).reshape(n + 1, n + 1)[:n]
        pairs[active] += seen[active]
        need -= np.minimum(visits, need)
        start += code.size
    return cut, pairs


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
        raise ChainTestError(f"pi_S_star={pi_S_star}, gamma={gamma}, delta={delta}")
    return int(ceil(c_vis * log(1.0 / (delta * pi_S_star)) / (pi_S_star * gamma)))
