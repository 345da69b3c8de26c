from bisect import bisect_right

import numpy as np
import pytest

from mcident import chain_core as cc
from mcident import corpus as cp
from mcident import metrics as mt
from mcident import sampling as sp
from mcident.errors import BadArgs, BadNu, TrajectoryAlphabetMismatch

from conftest import empirical_transition_matrix

THREE_CYCLE = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]


def stationary_nu(P, S):
    pi = cc.stationary_distribution(P).entries
    nu = np.zeros(len(pi))
    S = np.asarray(S, dtype=int)
    nu[S] = pi[S] / pi[S].sum()
    return nu


class TestTrajectoryType:
    def test_rejects_out_of_range(self):
        with pytest.raises(TrajectoryAlphabetMismatch):
            sp.Trajectory(d=2, states=np.array([0, 1, 2]))

    def test_rejects_empty(self):
        with pytest.raises(BadArgs):
            sp.Trajectory(d=2, states=np.array([], dtype=int))

    def test_len(self):
        assert len(sp.Trajectory(d=2, states=np.array([0, 1, 0]))) == 3

    def test_writeable_input_is_copied(self):
        arr = np.array([0, 1, 0], dtype=np.int64)
        traj = sp.Trajectory(d=2, states=arr)
        arr[0] = 1
        assert traj.states.tolist() == [0, 1, 0]
        assert not traj.states.flags.writeable

    def test_read_only_view_is_copied(self):
        base = np.array([0, 1, 0, 1], dtype=np.int64)
        base.setflags(write=False)
        traj = sp.Trajectory(d=2, states=base[1:])
        assert not np.shares_memory(traj.states, base)

    def test_read_only_owned_input_is_kept(self):
        arr = np.array([0, 1, 0], dtype=np.uint8)
        arr.setflags(write=False)
        assert sp.Trajectory(d=2, states=arr).states is arr

    def test_read_only_wide_input_is_narrowed(self):
        arr = np.array([0, 1, 0], dtype=np.int64)
        arr.setflags(write=False)
        states = sp.Trajectory(d=2, states=arr).states
        assert states.dtype == np.uint8 and states.tolist() == [0, 1, 0]
        assert not states.flags.writeable

    @pytest.mark.parametrize("d, dtype", [(1, np.uint8), (256, np.uint8), (257, np.uint16),
                                          (65_536, np.uint16), (65_537, np.uint32)])
    def test_smallest_unsigned_dtype(self, d, dtype):
        states = sp.Trajectory(d=d, states=[0, d - 1]).states
        assert states.dtype == dtype and states.tolist() == [0, d - 1]

    def test_narrow_input_is_widened(self):
        # a uint8 array for d = 300 is cast up to uint16, values kept
        arr = np.array([255, 0, 7], dtype=np.uint8)
        states = sp.Trajectory(d=300, states=arr).states
        assert states.dtype == np.uint16 and states.tolist() == [255, 0, 7]
        big = sp.Trajectory(d=300, states=np.array([299, 256, 0])).states
        assert big.dtype == np.uint16 and big.tolist() == [299, 256, 0]

    def test_rejects_float_states(self):
        # 2.7 would otherwise be truncated to 2
        with pytest.raises(BadArgs, match="integers"):
            sp.Trajectory(d=3, states=[0, 2.7, 1])
        with pytest.raises(BadArgs, match="integers"):
            sp.Trajectory(d=3, states=np.array([0.0, 1.0]))

    def test_rejects_bool_states(self):
        with pytest.raises(BadArgs, match="integers"):
            sp.Trajectory(d=2, states=np.array([True, False]))

    def test_rejects_object_states(self):
        with pytest.raises(BadArgs, match="integers"):
            sp.Trajectory(d=3, states=np.array([0, 1, None], dtype=object))

    @pytest.mark.parametrize("d", [0, -2])
    def test_rejects_d_below_one(self, d):
        with pytest.raises(BadArgs, match=f"d={d} must be >= 1"):
            sp.Trajectory(d=d, states=[1])

    def test_rejects_d_beyond_uint64(self):
        # a state of 2**64 - 1 would be written as 2**64, which wraps to 0
        with pytest.raises(BadArgs, match="< 2\\*\\*64"):
            sp.Trajectory(d=2**64, states=np.array([2**64 - 1], dtype=np.uint64))

    def test_simulate_result_is_read_only(self):
        traj = sp.simulate(np.eye(2), [1.0, 0.0], 10, seed=1)
        assert not traj.states.flags.writeable
        assert traj.states.dtype == np.uint8

    def test_simulate_writes_wide_alphabets(self):
        # a 257-cycle visits state 256, which needs uint16
        P = np.roll(np.eye(257), 1, axis=1)
        traj = sp.simulate(P, np.eye(257)[250], 20, seed=1)
        assert traj.states.dtype == np.uint16
        assert traj.states.tolist() == [(250 + t) % 257 for t in range(20)]


class TestSimulate:
    def test_absorbing_identity(self):
        traj = sp.simulate(np.eye(2), [1.0, 0.0], 10, seed=1)
        assert traj.states.tolist() == [0] * 10

    def test_deterministic_cycle(self):
        traj = sp.simulate(THREE_CYCLE, [1, 0, 0], 7, seed=3)
        assert traj.states.tolist() == [0, 1, 2, 0, 1, 2, 0]

    def test_seed_determinism(self, rng):
        P = cp.random_reversible(5, rng)
        mu = cc.stationary_distribution(P)
        a = sp.simulate(P, mu, 1000, seed=11)
        b = sp.simulate(P, mu, 1000, seed=11)
        assert np.array_equal(a.states, b.states)

    def test_frequency_law(self):
        # 10^6 steps of the fair two-state chain: state frequency within
        # 3 sigma of one half
        traj = sp.simulate([[0.5, 0.5], [0.5, 0.5]], [0.5, 0.5], 1_000_000, seed=7)
        freq = (traj.states == 0).mean()
        assert abs(freq - 0.5) <= 3.0 * 0.5 / np.sqrt(1e6)

    def test_transition_frequencies(self, rng):
        P = cp.random_reversible(4, rng)
        traj = sp.simulate(P, cc.stationary_distribution(P), 200_000, seed=13)
        emp = empirical_transition_matrix(traj.states, 4)
        assert np.abs(emp - P.entries).max() < 0.01


def loop_simulate(P, mu, m, seed):
    """Per-step reference for simulate: one bisect_right per uniform, the
    uniforms drawn in chunks of 2^20 after the initial state."""
    P, mu = cc.as_transition_matrix(P), cc.as_prob_vector(mu)
    rng = np.random.default_rng(seed)
    cums = []
    for row in P.entries:
        c = np.cumsum(row)
        c[-1] = max(c[-1], 1.0)
        cums.append(c.tolist())
    out = [int(rng.choice(P.d, p=mu.entries))]
    s, last, remaining = out[0], P.d - 1, m - 1
    while remaining > 0:
        k = min(1 << 20, remaining)
        row = cums[s]
        for u in rng.random(k).tolist():
            nxt = bisect_right(row, u)
            s = nxt if nxt <= last else last
            out.append(s)
            row = cums[s]
        remaining -= k
    return np.asarray(out, dtype=np.int64)


def _lazy_random(d):
    return cc.lazy_version(cp.random_reversible(d, np.random.default_rng(d)), 0.5)


# every row but one has two entries strictly inside one 1/1024 bucket of the
# guide table (near 0.25, at 0.3 through a zero entry, near 1 and near 0), so
# a lane there must move twice past its guide entry
CROWDED = [
    [0.25, 1e-4, 1e-4, 0.2498, 0.5, 0.0],
    [0.3, 0.0, 0.4, 0.3, 0.0, 0.0],
    [0.1, 0.2, 0.6998, 1e-4, 1e-4, 0.0],
    [1e-4, 2e-4, 0.5, 0.2997, 0.1, 0.1],
    [1 / 6] * 6,
    [0.5, 0.4998, 1e-4, 1e-4, 0.0, 0.0],
]


EXACT_CHAINS = {
    "lazy-random-4": lambda: _lazy_random(4),
    "lazy-random-8": lambda: _lazy_random(8),
    "lazy-random-64": lambda: _lazy_random(64),
    "planted-4-4": lambda: cp.planted_two_block((4, 4), np.random.default_rng(0)),
    # about 1e-5 of each row's mass crosses: paths from the two blocks
    # never meet, so blocks after a crossing are repaired or guessed again
    "two-blocks-1e-5": lambda: cp.planted_two_block((3, 3), np.random.default_rng(1), 7.5e-6),
    "hub-3-4": lambda: cp.hub_and_leaves(3, 4, np.random.default_rng(0)),
    "birth-death-8": lambda: cp.birth_death(8, np.random.default_rng(0)),
    "three-cycle": lambda: THREE_CYCLE,
    # periodic: paths from different states never meet (a 256-step block
    # brings the 64-cycle back to its phase, so only the shorter windows
    # repair; the three-cycle repairs every block)
    "cycle-64": lambda: np.roll(np.eye(64), 1, axis=1),
    "crowded-buckets": lambda: CROWDED,
    "identity-2": lambda: np.eye(2),
    "one-state": lambda: [[1.0]],
}


class TestSimulateExact:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("name", sorted(EXACT_CHAINS))
    def test_matches_per_step_loop(self, name, seed):
        # m states take m - 1 steps: none, one, one step either side of 16
        # blocks of 16 steps, a full window and one step either side of it,
        # and more than three windows. The loop's trajectory for a shorter m
        # is a prefix of its longest one.
        P = cc.as_transition_matrix(EXACT_CHAINS[name]())
        mu = np.full(P.d, 1.0 / P.d)
        window = sp.BLOCKS * sp.BLOCK_STEPS
        lengths = [1, 2, 256, 257, 258, window, window + 1, window + 2, 3 * window + 519]
        expected = loop_simulate(P, mu, lengths[-1], seed)
        for m in lengths:
            assert np.array_equal(sp.simulate(P, mu, m, seed).states, expected[:m]), m


class TestStepper:
    @pytest.mark.parametrize("name", sorted(EXACT_CHAINS))
    def test_matches_bisect_at_breakpoints(self, name):
        # every entry of every row, the floats either side of it and the
        # edges of its guide bucket: the lockstep map must agree with
        # bisect_right on each
        P = cc.as_transition_matrix(EXACT_CHAINS[name]())
        cum = np.cumsum(P.entries, axis=1)
        cum[:, -1] = np.maximum(cum[:, -1], 1.0)
        stepper = sp._Stepper(cum)
        for s, row in enumerate(cum):
            c = row[row < 1.0]
            edges = np.floor(c * sp.GUIDE) / sp.GUIDE
            u = np.concatenate([c, edges, np.nextafter(c, 0.0), np.nextafter(c, 1.0),
                                np.nextafter(edges, 0.0).clip(0.0), np.nextafter(edges + 1 / sp.GUIDE, 0.0)])
            u = u[u < 1.0]
            index = (u * sp.GUIDE).astype(np.int64) * P.d + s
            expected = [bisect_right(row.tolist(), v) for v in u.tolist()]
            assert stepper.step(index, u).tolist() == expected

    def test_crowded_rows_need_two_moves(self):
        cum = np.cumsum(cc.as_transition_matrix(CROWDED).entries, axis=1)
        assert sp._Stepper(cum).passes == 2


def loop_iid_generate(traj, S, nu, l, seed):
    """Reference for iid_generate's codes: the per-state loop it used to run
    (after the same argument checks)."""
    S_idx = np.unique(np.asarray(S, dtype=int))
    n = len(S_idx)
    weights = np.asarray(nu, dtype=float)[S_idx]
    rng = np.random.default_rng(seed)
    if l == 0:
        return np.empty(0, dtype=np.int64)
    anchors = rng.choice(n, size=l, p=weights / weights.sum())
    counts = np.bincount(anchors, minlength=n)
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


class TestIidGenerate:
    @pytest.mark.parametrize("name", ["lazy-random-8", "two-blocks-1e-5", "hub-3-4", "birth-death-8"])
    def test_matches_per_state_loop(self, name):
        P = cc.as_transition_matrix(EXACT_CHAINS[name]())
        pi = cc.stationary_distribution(P).entries
        results = set()
        for seed in range(3):
            traj = sp.simulate(P, pi, 20_000, seed=seed)
            for S in (range(P.d), range(P.d // 2), [P.d - 1]):
                nu = stationary_nu(P, S)
                for l in (0, 1, 700, 9_000, 30_000):
                    got = sp.iid_generate(traj, S, nu, l, seed=seed + 10)
                    want = loop_iid_generate(traj, S, nu, l, seed + 10)
                    results.add(want is None)
                    if want is None:
                        assert got is None
                    else:
                        assert got.dtype == np.int64
                        assert got.tobytes() == want.tobytes()
        assert results == {True, False}

    @pytest.mark.parametrize("chunk", [1, 7, 4096])
    def test_chunked_scan_matches_per_state_loop(self, monkeypatch, chunk):
        # visits found across chunk boundaries, in chunks shorter than any
        # run of one state and than the whole trajectory
        monkeypatch.setattr(sp, "VISIT_CHUNK", chunk)
        P = cc.as_transition_matrix(EXACT_CHAINS["two-blocks-1e-5"]())
        pi = cc.stationary_distribution(P).entries
        traj = sp.simulate(P, pi, 9_000 if chunk > 1 else 700, seed=3)
        results = set()
        for S in (range(P.d), [0, 2], [P.d - 1]):
            nu = stationary_nu(P, S)
            for l in (1, 300, 4_000, 20_000):
                got = sp.iid_generate(traj, S, nu, l, seed=l)
                want = loop_iid_generate(traj, S, nu, l, l)
                results.add(want is None)
                assert (got is None) if want is None else got.tobytes() == want.tobytes()
        assert results == {True, False}

    def test_matches_induced_distribution(self):
        # Monte Carlo oracle: 10^5 generated pairs against the closed-form
        # induced law, all cells within 3 standard errors
        r = np.random.default_rng(17)
        P = cp.random_reversible(4, r)
        S = [0, 1]
        nu = stationary_nu(P, S)
        traj = sp.simulate(P, cc.stationary_distribution(P), 800_000, seed=19)
        samples = sp.iid_generate(traj, S, nu, 100_000, seed=23)
        assert samples is not None
        ref = mt.induced_distribution(P, nu, S).p
        n = len(samples)
        freq = np.bincount(samples, minlength=len(ref)) / n
        assert len(freq) == len(ref)
        se = np.sqrt(np.maximum(ref * (1 - ref), 1e-12) / n)
        assert np.all(np.abs(freq - ref) <= 3.0 * se + 1e-9)

    def test_zero_samples_never_fail(self, rng):
        P = cp.random_reversible(3, rng)
        traj = sp.simulate(P, cc.stationary_distribution(P), 10, seed=1)
        got = sp.iid_generate(traj, [0, 1, 2], stationary_nu(P, range(3)), 0, seed=2)
        assert got.dtype == np.int64 and got.shape == (0,)

    def test_short_trajectory_fails(self, rng):
        P = cp.random_reversible(4, rng)
        traj = sp.simulate(P, cc.stationary_distribution(P), 5, seed=3)
        assert sp.iid_generate(traj, range(4), stationary_nu(P, range(4)), 1000, seed=4) is None
        # 10**300 anchors could not be drawn at all: more anchors than
        # visits fail before the draw
        assert sp.iid_generate(traj, range(4), stationary_nu(P, range(4)), 10**300, seed=4) is None

    def test_determinism(self, rng):
        P = cp.random_reversible(4, rng)
        traj = sp.simulate(P, cc.stationary_distribution(P), 50_000, seed=5)
        nu = stationary_nu(P, range(4))
        a = sp.iid_generate(traj, range(4), nu, 2000, seed=6)
        b = sp.iid_generate(traj, range(4), nu, 2000, seed=6)
        assert np.array_equal(a, b)

    def test_extension_never_breaks_success(self, rng):
        # same anchor draws on a longer trajectory can only add visits
        P = cp.random_reversible(4, rng)
        long_traj = sp.simulate(P, cc.stationary_distribution(P), 60_000, seed=7)
        nu = stationary_nu(P, range(4))
        for cut in (20_000, 40_000, 60_000):
            prefix = sp.Trajectory(d=4, states=long_traj.states[:cut])
            got = sp.iid_generate(prefix, range(4), nu, 3000, seed=8)
            if cut == 20_000:
                first = got
            assert got is not None
        assert first is not None

    def test_infinity_symbol_for_leavers(self, rng):
        P = cp.random_reversible(4, rng)
        traj = sp.simulate(P, cc.stationary_distribution(P), 100_000, seed=9)
        S = [0, 1]
        samples = sp.iid_generate(traj, S, stationary_nu(P, S), 5000, seed=10)
        assert samples.dtype == np.int64
        assert 4 in set(samples.tolist())
        assert samples.min() >= 0 and samples.max() <= 4

    def test_codes_match_tuple_reference(self, rng):
        # loop reference: the k-th anchor on S[a] takes the successor of the
        # k-th visit to S[a]; pair (S[a], S[b]) is code a*|S| + b, leaving S
        # is |S|^2
        P = cp.random_reversible(5, rng)
        traj = sp.simulate(P, cc.stationary_distribution(P), 20_000, seed=12)
        S = [1, 3, 4]
        nu = stationary_nu(P, S)
        codes = sp.iid_generate(traj, S, nu, 3000, seed=14)
        anchors = np.random.default_rng(14).choice(3, size=3000, p=nu[S] / nu[S].sum())
        visits = {i: iter(np.flatnonzero(traj.states[:-1] == i)) for i in S}
        expected = []
        for a in anchors:
            succ = int(traj.states[next(visits[S[a]]) + 1])
            expected.append(a * 3 + S.index(succ) if succ in S else 9)
        assert codes.tolist() == expected

    def test_bad_nu(self, rng):
        P = cp.random_reversible(4, rng)
        traj = sp.simulate(P, cc.stationary_distribution(P), 100, seed=1)
        with pytest.raises(BadNu):
            sp.iid_generate(traj, [0, 1], [0.25, 0.25, 0.25, 0.25], 10, seed=2)
        with pytest.raises(BadNu):
            sp.iid_generate(traj, [0, 1], [1.0, 0.0, 0.0, 0.0], 10, seed=2)

    def test_successor_exchangeability(self):
        # Successors harvested at distinct visits to one state should be
        # exchangeable; a permutation test on the lag correlation of the
        # successor sequence should not reject at the 1% level.
        r = np.random.default_rng(31)
        P = cp.random_reversible(3, r)
        traj = sp.simulate(P, cc.stationary_distribution(P), 120_000, seed=33)
        pos = np.flatnonzero(traj.states[:-1] == 0)
        succ = traj.states[pos + 1].astype(float)
        n = min(len(succ), 5000)
        succ = succ[:n]
        stat = np.corrcoef(succ[:-1], succ[1:])[0, 1]
        perm = np.random.default_rng(35)
        null = []
        for _ in range(400):
            s = perm.permutation(succ)
            null.append(np.corrcoef(s[:-1], s[1:])[0, 1])
        lo, hi = np.quantile(null, [0.005, 0.995])
        assert lo <= stat <= hi


class TestRequiredVisits:
    def test_gamma_scaling(self):
        a = sp.required_visits(0.1, 0.2, 0.1)
        b = sp.required_visits(0.1, 0.4, 0.1)
        assert a == pytest.approx(2 * b, abs=2)  # ceil rounding

    def test_delta_log_growth(self):
        a = sp.required_visits(0.1, 0.5, 0.1)
        b = sp.required_visits(0.1, 0.5, 0.01)
        ratio = np.log(1 / (0.01 * 0.1)) / np.log(1 / (0.1 * 0.1))
        assert b / a == pytest.approx(ratio, rel=1e-3)

    def test_c_vis_multiplier(self):
        # calibrate_constants.py sweeps c_vis; the default is sampling.C_VIS
        assert sp.required_visits(0.1, 0.5, 0.1) == sp.required_visits(0.1, 0.5, 0.1, sp.C_VIS)
        a = sp.required_visits(0.1, 0.5, 0.1, c_vis=10.0)
        assert sp.required_visits(0.1, 0.5, 0.1, c_vis=40.0) == pytest.approx(4 * a, abs=4)

    def test_bad_args(self):
        with pytest.raises(BadArgs):
            sp.required_visits(0.0, 0.5, 0.1)
        with pytest.raises(BadArgs):
            sp.required_visits(0.1, 0.5, 1.5)

    def test_visit_event_on_calibration_chains(self):
        # every state visited at least pi(i) m / 2 times in at least 90% of
        # runs at the prescribed length
        hits = trials = 0
        for k in range(20):
            r = np.random.default_rng(600 + k)
            P = cp.random_reversible(int(r.integers(3, 9)), r)
            pi = cc.stationary_distribution(P).entries
            gamma = cc.spectral_gap(P)
            m = sp.required_visits(float(pi.min()), gamma, 0.1)
            for t in range(10):
                traj = sp.simulate(P, pi, m, seed=horizon_seed(k, t))
                counts = np.bincount(traj.states, minlength=P.d)
                hits += bool(np.all(counts >= pi * m / 2.0))
                trials += 1
        assert hits / trials >= 0.9


def horizon_seed(chain_idx, trial_idx):
    return 100_000 + 1000 * chain_idx + trial_idx
