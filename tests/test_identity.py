import numpy as np
import pytest

from mcident import chain_core as cc
from mcident import corpus as cp
from mcident import identity as idn
from mcident import sampling as sp
from mcident._rng import derive_rng
from mcident.errors import ChainTestError
from mcident.iid_test import iid_sample_size, iid_test
from mcident.metrics import chain_distance, induced_distribution

from conftest import empirical_transition_matrix

EPS = 0.3
ALPHA = EPS**2 / (2.0 * np.sqrt(2.0))


def reference_chain(seed=3, d=5):
    r = np.random.default_rng(seed)
    target = cp.random_target(d, r)
    return cp.metropolis(target, r)


def budget_for(P, eps=EPS):
    pi = cc.stationary_distribution(P).entries
    return idn.trajectory_budget(P.d, float(pi.min()), eps)


def lazy_trajectory_of(P, m, seed):
    lazy = cc.lazy_version(P, ALPHA)
    return sp.simulate(lazy, cc.stationary_distribution(lazy), m, seed=seed)


class TestConfigValidation:
    def test_defaults(self, monkeypatch):
        # identity_test partitions at beta = eps/16 and gives each component's
        # tester confidence 1/(10 d)
        seen = {}
        partition_states, iid_sample_size = idn.partition_states, idn.iid_sample_size

        def spy_partition(P, beta, **kwargs):
            seen["beta"] = beta
            return partition_states(P, beta=beta, **kwargs)

        def spy_size(support, eps, delta):
            seen["delta"] = delta
            return iid_sample_size(support, eps, delta)

        monkeypatch.setattr(idn, "partition_states", spy_partition)
        monkeypatch.setattr(idn, "iid_sample_size", spy_size)
        traj = sp.Trajectory(d=8, states=np.zeros(10, dtype=np.int64))
        idn.identity_test(reference_chain(d=8), traj, idn.TestConfig(eps=0.32))
        assert seen == {"beta": pytest.approx(0.02), "delta": pytest.approx(1.0 / 80.0)}

    def test_rejects_bad_eps(self):
        with pytest.raises(ChainTestError, match="eps=1.2 outside"):
            idn.TestConfig(eps=1.2)


class TestTrajectoryBudget:
    def test_decreasing_in_eps(self):
        ms = [idn.trajectory_budget(6, 0.1, e) for e in (0.1, 0.2, 0.4, 0.8)]
        assert ms == sorted(ms, reverse=True)
        assert ms[0] > ms[1] > ms[2] > ms[3]

    def test_eps_fourth_power(self):
        a = idn.trajectory_budget(6, 0.1, 0.2)
        b = idn.trajectory_budget(6, 0.1, 0.4)
        assert a == pytest.approx(16 * b, rel=0.01)

    def test_increasing_in_inverse_mass(self):
        ms = [idn.trajectory_budget(6, p, 0.3) for p in (0.15, 0.1, 0.05, 0.01)]
        assert ms == sorted(ms)

    def test_bad_args(self):
        with pytest.raises(ChainTestError, match="d=0, pibar_star"):
            idn.trajectory_budget(0, 0.1, 0.3)
        with pytest.raises(ChainTestError, match="pibar_star=0.0,"):
            idn.trajectory_budget(4, 0.0, 0.3)


class TestLazifyTrajectory:
    def test_alpha_zero_identity(self, rng):
        P = cp.random_reversible(3, rng)
        traj = sp.simulate(P, cc.stationary_distribution(P), 100, seed=1)
        assert idn.lazify_trajectory(traj, 0.0, seed=2) is traj

    def test_expected_expansion(self, rng):
        P = cp.random_reversible(3, rng)
        traj = sp.simulate(P, cc.stationary_distribution(P), 100_000, seed=3)
        alpha = 0.2
        out = idn.lazify_trajectory(traj, alpha, seed=4)
        expansion = len(out) / len(traj)
        assert expansion == pytest.approx(1.0 / (1.0 - alpha), rel=0.02)

    def test_matches_lazy_chain_law(self, rng):
        # the emulated trajectory's transition frequencies should match the
        # lazy kernel within Monte Carlo error
        P = cp.random_reversible(3, rng)
        alpha = 0.15
        traj = sp.simulate(P, cc.stationary_distribution(P), 400_000, seed=5)
        out = idn.lazify_trajectory(traj, alpha, seed=6)
        lazy = cc.lazy_version(P, alpha).entries
        emp = empirical_transition_matrix(np.concatenate(list(out.chunks())), 3)
        assert np.abs(emp - lazy).max() < 0.01


    @pytest.mark.parametrize("alpha", [0.03, 0.5, 0.9])
    @pytest.mark.parametrize("extra", [-1, 0, 1, 4 * sp.VISIT_CHUNK + 1])
    def test_chunked_holds_match_one_draw(self, alpha, extra):
        # Geometric(1 - alpha) draws by numpy's search branch (alpha 0.03 and
        # 0.5) and its inversion branch (alpha 0.9, success probability below
        # 1/3), for lengths below, at and above one chunk, and one state past
        # five: the length drawn without reading a state, and the states of
        # each scan, chunk by chunk, are those of one draw for all of them
        d = 256
        states = np.random.default_rng(7).integers(0, d, sp.VISIT_CHUNK + extra)
        states[-1] = d - 1
        traj = sp.Trajectory(d=d, states=states)
        rng = derive_rng(11, "hold-times")
        want = np.repeat(traj.states, rng.geometric(1.0 - alpha, size=len(states)))
        out = idn.lazify_trajectory(traj, alpha, seed=11)
        assert isinstance(out, sp.StateStream) and len(out) == len(want)
        for _ in range(2):
            chunks = list(out.chunks())
            assert all(chunk.dtype == np.uint8 for chunk in chunks)
            assert np.array_equal(np.concatenate(chunks), want)

    @pytest.mark.parametrize("alpha", [0.03, 0.9])
    @pytest.mark.parametrize("extra", [-1, 1, 4 * sp.VISIT_CHUNK + 1])
    def test_stream_matches_lazify_trajectory(self, alpha, extra):
        # a StateStream source cut into chunks of other sizes than a
        # Trajectory's is lazified to the same length and the same states,
        # scan after scan
        states = np.random.default_rng(8).integers(0, 5, sp.VISIT_CHUNK + extra)
        traj = sp.Trajectory(d=5, states=states)
        want = np.concatenate(list(idn.lazify_trajectory(traj, alpha, seed=12).chunks()))
        cuts = np.cumsum(np.resize([1000, 7, 3001], len(states)))
        cuts = cuts[cuts < len(states)]
        source = sp.StateStream(5, len(states), lambda: iter(np.split(traj.states, cuts)))
        stream = idn.lazify_trajectory(source, alpha, seed=12)
        assert len(stream) == len(want)
        for _ in range(2):
            assert np.array_equal(np.concatenate(list(stream.chunks())), want)


class TestIdentityTest:
    def test_rejects_bad_reference(self, rng):
        traj = sp.Trajectory(d=3, states=np.array([0, 1, 2]))
        with pytest.raises(ChainTestError, match="reference must be irreducible and reversible"):
            idn.identity_test([[0, 1, 0], [0, 0, 1], [1, 0, 0]], traj, idn.TestConfig(eps=0.3))

    def test_rejects_alphabet_mismatch(self, rng):
        P = cp.random_reversible(4, rng)
        traj = sp.Trajectory(d=3, states=np.array([0, 1, 2]))
        with pytest.raises(ChainTestError, match="trajectory d=3, reference d=4"):
            idn.identity_test(P, traj, idn.TestConfig(eps=0.3))

    def test_rejects_eps_without_finite_budget(self, rng, monkeypatch):
        # refused before the reference is partitioned, not a Reject
        def partition_states(*args, **kwargs):
            raise AssertionError("partition_states called")

        monkeypatch.setattr(idn, "partition_states", partition_states)
        P = cp.random_reversible(4, rng)
        traj = sp.simulate(P, P.pi, 100, seed=1)
        with pytest.raises(ChainTestError, match="trajectory budget inf is not finite"):
            idn.identity_test(P, traj, idn.TestConfig(eps=1e-100))

    def test_too_short_rejects_via_all_failed(self):
        P = reference_chain()
        traj = lazy_trajectory_of(P, 10, seed=1)
        rep = idn.identity_test(P, traj, idn.TestConfig(eps=EPS, seed=2))
        assert rep.verdict == idn.REJECT
        assert all(o.failed for o in rep.per_component)
        assert all(o.prefix_read == len(traj) - 1 for o in rep.per_component)
        assert rep.tested_component is None

    def test_report_consistency(self):
        P = reference_chain()
        traj = lazy_trajectory_of(P, budget_for(P), seed=3)
        rep = idn.identity_test(P, traj, idn.TestConfig(eps=EPS, seed=4))
        pibar_star = float(cc.stationary_distribution(P).entries.min())
        assert rep.budget_hint == idn.trajectory_budget(P.d, pibar_star, EPS)
        non_failed = [o for o in rep.per_component if not o.failed]
        if non_failed:
            assert rep.verdict == non_failed[0].verdict.decision
            assert rep.tested_component == non_failed[0].states
        else:
            assert rep.verdict == idn.REJECT
        covered = set(rep.partition_used.tail)
        for S in rep.partition_used.components:
            covered |= set(S)
        assert covered == set(range(P.d))

    def test_prefix_read_is_all_the_verdict_reads(self):
        # the tested component's verdict is the same on the trajectory cut
        # just after its prefix read, and that component fails one state
        # earlier
        P = reference_chain()
        traj = lazy_trajectory_of(P, budget_for(P), seed=7)
        cfg = idn.TestConfig(eps=EPS, seed=8)
        rep = idn.identity_test(P, traj, cfg)
        (k, tested), = [(k, o) for k, o in enumerate(rep.per_component) if not o.failed]
        assert 0 < tested.prefix_read < len(traj)
        cut = idn.identity_test(P, sp.Trajectory(d=P.d, states=traj.states[: tested.prefix_read + 1]), cfg)
        assert cut.per_component[k].verdict == tested.verdict
        short = idn.identity_test(P, sp.Trajectory(d=P.d, states=traj.states[: tested.prefix_read]), cfg)
        assert short.per_component[k].failed

    def test_seed_determinism(self):
        P = reference_chain()
        traj = lazy_trajectory_of(P, budget_for(P), seed=5)
        a = idn.identity_test(P, traj, idn.TestConfig(eps=EPS, seed=6))
        b = idn.identity_test(P, traj, idn.TestConfig(eps=EPS, seed=6))
        assert a.verdict == b.verdict
        assert a.per_component == b.per_component

    def test_accepts_matching_chain(self):
        P = reference_chain()
        m = budget_for(P)
        accepts = 0
        for t in range(15):
            traj = lazy_trajectory_of(P, m, seed=100 + t)
            rep = idn.identity_test(P, traj, idn.TestConfig(eps=EPS, seed=200 + t))
            accepts += 1 - rep.verdict
        assert accepts / 15 >= 0.6

    def test_rejects_far_chain(self):
        r = np.random.default_rng(8)
        target = cp.random_target(5, r)
        P, Pbar = cp.far_reversible_pair(5, r, distance_min=EPS, ratio_max=0.0, target=target)
        assert chain_distance(P, Pbar) >= EPS
        m = budget_for(Pbar)
        rejects = 0
        for t in range(15):
            lazy_unknown = cc.lazy_version(P, ALPHA)
            traj = sp.simulate(
                lazy_unknown, cc.stationary_distribution(lazy_unknown), m, seed=300 + t
            )
            rep = idn.identity_test(Pbar, traj, idn.TestConfig(eps=EPS, seed=400 + t))
            rejects += rep.verdict
        assert rejects / 15 >= 0.6

    def test_emulate_mode(self):
        P = reference_chain()
        m = budget_for(P)
        plain = sp.simulate(P, cc.stationary_distribution(P), m, seed=9)
        rep = idn.identity_test(P, plain, idn.TestConfig(eps=EPS, seed=10), lazify="emulate")
        assert rep.trajectory_length >= m
        assert rep.verdict in (0, 1)

    def test_unknown_mode_rejected(self):
        P = reference_chain()
        traj = lazy_trajectory_of(P, 100, seed=11)
        with pytest.raises(ChainTestError, match="lazify='bogus'"):
            idn.identity_test(P, traj, idn.TestConfig(eps=EPS), lazify="bogus")


def code_route(Pbar, traj, cfg, lazify):
    """identity_test's per-component verdicts rebuilt through the public
    code-level API: iid_test(iid_generate(...)) with the anchors seed
    identity_test derives; None where the conversion fails."""
    alpha = cfg.eps**2 / (2.0 * np.sqrt(2.0))
    P_ref = cc.lazy_version(Pbar, alpha)
    pibar = cc.stationary_distribution(P_ref)
    if lazify == "emulate":
        traj = idn.lazify_trajectory(traj, alpha, seed=cfg.seed)
    eps_hel = cfg.eps / np.sqrt(idn.HELLINGER_SEPARATION_FACTOR)
    part = idn.identity_test(Pbar, traj, cfg, lazify="assume").partition_used
    verdicts = []
    for idx, S in enumerate(part.components):
        S_arr = np.asarray(S, dtype=int)
        nu = np.zeros(Pbar.d)
        nu[S_arr] = pibar.entries[S_arr] / float(pibar.entries[S_arr].sum())
        l = iid_sample_size(len(S) ** 2 + 1, eps_hel, 1.0 / (10.0 * Pbar.d))
        anchors_seed = int(derive_rng(cfg.seed, "anchors", idx).integers(2**63))
        codes = sp.iid_generate(traj, S, nu, l, seed=anchors_seed)
        if codes is None:
            verdicts.append(None)
            continue
        verdicts.append(iid_test(codes, induced_distribution(P_ref, pibar, S).p, eps_hel,
                                 1.0 / (10.0 * Pbar.d)))
        break
    return verdicts


def bits(verdict):
    return None if verdict is None else (verdict.decision, verdict.statistic.hex(),
                                         verdict.threshold.hex(), verdict.sample_size)


def assert_same_route(Pbar, traj, cfg, lazify):
    rep = idn.identity_test(Pbar, traj, cfg, lazify=lazify)
    got = [bits(o.verdict) for o in rep.per_component]
    assert got == [bits(v) for v in code_route(Pbar, traj, cfg, lazify)]
    return rep


class TestHistogramRoute:
    """identity_test bins the anchored visits straight into the tester's
    histogram; its statistics and thresholds must equal, bit for bit, those
    of iid_test on iid_generate's codes."""

    @pytest.mark.parametrize("lazify", ["assume", "emulate"])
    def test_corpus_chains(self, corpus, lazify):
        reasons = set()
        for k, (name, ref, far) in enumerate(corpus):
            l = iid_sample_size(ref.d**2 + 1, EPS / np.sqrt(128), 1.0 / (10 * ref.d))
            for j, P in enumerate((ref, far)):
                if lazify == "assume":
                    traj = lazy_trajectory_of(P, 2 * l, seed=10 * k + j)
                else:
                    traj = sp.simulate(P, cc.stationary_distribution(P), 2 * l, seed=10 * k + j)
                cfg = idn.TestConfig(eps=EPS, seed=50 + 10 * k + j)
                reasons.add(assert_same_route(ref, traj, cfg, lazify).reason)
        assert "tester" in reasons

    def test_two_components(self):
        P = cp.planted_two_block((3, 4), np.random.default_rng(4))
        for m, seed in ((150_000, 1), (400_000, 2)):
            rep = assert_same_route(P, lazy_trajectory_of(P, m, seed=seed),
                                    idn.TestConfig(eps=EPS, seed=seed), "assume")
            assert len(rep.partition_used.components) == 2
        assert rep.reason == "tester"

    def test_too_short(self):
        P = reference_chain()
        rep = assert_same_route(P, lazy_trajectory_of(P, 5_000, seed=12),
                                idn.TestConfig(eps=EPS, seed=13), "emulate")
        assert rep.reason == "no_component_converted"

    def test_codes_beyond_one_byte(self):
        # d = 20: codes a*20 + b reach 400, past what a uint8 holds
        P = cp.random_reversible(20, np.random.default_rng(20))
        l = iid_sample_size(401, EPS / np.sqrt(128), 1.0 / 200)
        rep = assert_same_route(P, lazy_trajectory_of(P, 2 * l, seed=14),
                                idn.TestConfig(eps=EPS, seed=15), "assume")
        assert rep.reason == "tester"


class TestPropertySuite:
    def test_no_violations(self):
        rep = idn.property_suite(seed=5, pairs=150)
        assert rep.passed, rep.violations[:3]
        assert rep.checks["time_reversal_equality"] == 150
        assert rep.checks["power_inequality"] == 600
        assert rep.checks["power_limit"] == 150

    def test_constructors_make_ergodic_pairs(self):
        # why the power-limit check runs on every pair: metropolis keeps at
        # least half of each row on the diagonal, and random_irreducible is
        # entrywise positive, so both make irreducible aperiodic chains
        r = np.random.default_rng(11)
        for _ in range(200):
            d = int(r.integers(2, 9))
            P = cp.metropolis(cp.random_target(d, r), r)
            assert P.irreducible and P.entries.diagonal().min() >= 0.5 - 1e-12
            assert cp.random_irreducible(d, r).entries.min() > 0.0

    def test_family_separates_distance_from_stationary_gap(self):
        rep = idn.property_suite(seed=5, pairs=2)
        last = rep.family[-1]
        assert last.alpha == 0.001
        assert last.distance < 0.05
        assert last.stationary_hellinger_sq > 0.25
        dists = [f.distance for f in rep.family]
        assert dists == sorted(dists, reverse=True)

    def test_deterministic(self):
        a = idn.property_suite(seed=7, pairs=30)
        b = idn.property_suite(seed=7, pairs=30)
        assert a == b
