import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcident import chain_core as cc
from mcident import corpus as cp
from mcident import metrics as mt
from mcident.errors import (
    AlphaOutOfRange,
    EmptySubset,
    MalformedMatrix,
    NegativeEntry,
    NotIrreducible,
    NotReversible,
    ShapeMismatch,
)

from conftest import empirical_transition_matrix

TWO_CYCLE = [[0.0, 1.0], [1.0, 0.0]]
THREE_CYCLE = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
UNIFORM2 = [[0.5, 0.5], [0.5, 0.5]]


def random_reversible_from_seed(seed, d_lo=2, d_hi=8):
    r = np.random.default_rng(seed)
    return cp.random_reversible(int(r.integers(d_lo, d_hi + 1)), r)


class TestTypes:
    def test_rejects_bad_row_sums(self):
        with pytest.raises(MalformedMatrix):
            cc.TransitionMatrix(np.array([[0.5, 0.6], [0.5, 0.5]]))

    def test_rejects_negative_entries(self):
        with pytest.raises(MalformedMatrix):
            cc.TransitionMatrix(np.array([[1.1, -0.1], [0.5, 0.5]]))

    def test_rejects_nonsquare(self):
        with pytest.raises(MalformedMatrix):
            cc.TransitionMatrix(np.ones((2, 3)) / 3)

    def test_entries_immutable(self):
        P = cc.TransitionMatrix(np.array(UNIFORM2))
        with pytest.raises(ValueError):
            P.entries[0, 0] = 0.0

    def test_prob_vector_validation(self):
        with pytest.raises(Exception):
            cc.ProbVector(np.array([0.5, 0.6]))

    def test_chain_class_consistency(self):
        with pytest.raises(ValueError):
            cc.ChainClass(irreducible=False, reversible=False, ergodic=True)


class TestValidate:
    def test_identity_two_absorbing_states(self):
        cls = cc.validate(np.eye(2))
        assert not cls.irreducible and not cls.ergodic

    def test_two_cycle_periodic(self):
        cls = cc.validate(TWO_CYCLE)
        assert cls.irreducible and cls.reversible and not cls.ergodic

    def test_positive_chain_ergodic(self):
        cls = cc.validate(UNIFORM2)
        assert cls.irreducible and cls.reversible and cls.ergodic

    def test_three_cycle_not_reversible(self):
        cls = cc.validate(THREE_CYCLE)
        assert cls.irreducible and not cls.reversible and not cls.ergodic

    def test_single_state(self):
        cls = cc.validate([[1.0]])
        assert cls.irreducible and cls.reversible and cls.ergodic


class TestStationaryDistribution:
    def test_two_cycle_symmetric(self):
        pi = cc.stationary_distribution(TWO_CYCLE).entries
        assert pi == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_two_state_closed_form(self):
        # [[1-a, a], [b, 1-b]] has stationary law (b, a) / (a + b)
        pi = cc.stationary_distribution([[0.8, 0.2], [0.6, 0.4]]).entries
        assert pi == pytest.approx([0.75, 0.25], abs=1e-12)

    def test_half_alpha_family(self):
        pi = cc.stationary_distribution([[0.9, 0.1], [0.5, 0.5]]).entries
        assert pi == pytest.approx([5.0 / 6.0, 1.0 / 6.0], abs=1e-12)

    def test_requires_irreducible(self):
        with pytest.raises(NotIrreducible):
            cc.stationary_distribution(np.eye(3))

    def test_solved_once_per_matrix(self, rng):
        P = cp.random_reversible(5, rng)
        pi = cc.stationary_distribution(P)
        assert cc.stationary_distribution(P) is pi
        twin = cc.TransitionMatrix(P.entries)
        pi_twin = cc.stationary_distribution(twin)
        assert pi_twin is not pi
        assert np.array_equal(pi_twin.entries, pi.entries)
        assert np.array_equal(twin.Q, P.Q)

    def test_cached_arrays_read_only(self, rng):
        P = cp.random_reversible(4, rng)
        assert np.array_equal(P.Q, P.pi[:, None] * P.entries)
        with pytest.raises(ValueError):
            P.pi[0] = 0.5
        with pytest.raises(ValueError):
            P.Q[0, 0] = 0.5

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_fixed_point_residual(self, seed):
        P = random_reversible_from_seed(seed)
        pi = cc.stationary_distribution(P).entries
        assert np.abs(pi @ P.entries - pi).max() <= 1e-10
        assert pi.min() > 0


def edge_measure(P, nu):
    """diag(nu) P: the law of one transition anchored in the whole state space."""
    d = len(nu)
    return mt.induced_distribution(P, nu, range(d)).p[:-1].reshape(d, d)


class TestEdgeMeasure:
    def test_two_cycle(self):
        Q = edge_measure(TWO_CYCLE, [0.5, 0.5])
        assert Q == pytest.approx(np.array([[0, 0.5], [0.5, 0.0]]), abs=1e-15)

    def test_identity_gives_diagonal(self):
        Q = edge_measure(np.eye(3), [0.2, 0.3, 0.5])
        assert Q == pytest.approx(np.diag([0.2, 0.3, 0.5]), abs=1e-15)

    def test_half_alpha_family_symmetric(self):
        Q = edge_measure([[0.9, 0.1], [0.5, 0.5]], [5 / 6, 1 / 6])
        expected = np.array([[0.75, 1 / 12], [1 / 12, 1 / 12]])
        assert Q == pytest.approx(expected, abs=1e-12)
        assert abs(Q[0, 1] - Q[1, 0]) <= 1e-15  # reversibility shows as symmetry

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            edge_measure(np.eye(3), [0.5, 0.5])


class TestTimeReversal:
    def test_reversible_fixed_point(self, rng):
        P = cp.random_reversible(5, rng)
        assert cc.time_reversal(P).entries == pytest.approx(P.entries, abs=1e-12)

    def test_three_cycle_transposes(self):
        assert cc.time_reversal(THREE_CYCLE).entries == pytest.approx(
            np.array(THREE_CYCLE, dtype=float).T, abs=1e-12
        )

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_involution(self, seed):
        r = np.random.default_rng(seed)
        P = cp.random_irreducible(int(r.integers(2, 7)), r)
        PP = cc.time_reversal(cc.time_reversal(P))
        assert np.abs(PP.entries - P.entries).max() <= 1e-9

    def test_flux_identity(self, rng):
        P = cp.random_irreducible(4, rng)
        pi = cc.stationary_distribution(P).entries
        rev = cc.time_reversal(P).entries
        lhs = pi[:, None] * rev
        rhs = (pi[:, None] * P.entries).T
        assert lhs == pytest.approx(rhs, abs=1e-12)


class TestMultiplicativeReversibilization:
    def test_reversible_gives_square(self, rng):
        P = cp.random_reversible(4, rng)
        got = cc.multiplicative_reversibilization(P).entries
        assert got == pytest.approx(P.entries @ P.entries, abs=1e-12)

    def test_three_cycle_gives_identity(self):
        got = cc.multiplicative_reversibilization(THREE_CYCLE).entries
        assert got == pytest.approx(np.eye(3), abs=1e-12)

    def test_reversible_with_same_stationary(self, rng):
        P = cp.random_irreducible(4, rng)
        dag = cc.multiplicative_reversibilization(P)
        pi = cc.stationary_distribution(P).entries
        Q = pi[:, None] * dag.entries
        assert np.abs(Q - Q.T).max() < 1e-9
        pi_dag = cc.stationary_distribution(dag).entries
        assert pi_dag == pytest.approx(pi, abs=1e-8)


class TestLazyVersion:
    def test_alpha_zero_is_p(self):
        P = cc.lazy_version(TWO_CYCLE, 0.0)
        assert P.entries == pytest.approx(np.array(TWO_CYCLE, dtype=float))

    def test_alpha_one_is_identity(self):
        P = cc.lazy_version(TWO_CYCLE, 1.0)
        assert P.entries == pytest.approx(np.eye(2))

    def test_quarter(self):
        P = cc.lazy_version(TWO_CYCLE, 0.25)
        assert P.entries == pytest.approx(np.array([[0.25, 0.75], [0.75, 0.25]]))

    def test_alpha_range(self):
        with pytest.raises(AlphaOutOfRange):
            cc.lazy_version(TWO_CYCLE, 1.5)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), alpha=st.floats(0.01, 0.99))
    def test_stationary_invariance(self, seed, alpha):
        P = random_reversible_from_seed(seed)
        pi = cc.stationary_distribution(P).entries
        pi_lazy = cc.stationary_distribution(cc.lazy_version(P, alpha)).entries
        assert np.abs(pi - pi_lazy).max() <= 1e-9


class TestCensor:
    def test_full_set_returns_p(self, rng):
        P = cp.random_reversible(4, rng)
        assert cc.censor(P, range(4)).entries == pytest.approx(P.entries)

    def test_singleton(self, rng):
        P = cp.random_reversible(4, rng)
        assert cc.censor(P, [2]).entries == pytest.approx(np.array([[1.0]]))

    def test_empty_raises(self, rng):
        with pytest.raises(EmptySubset):
            cc.censor(cp.random_reversible(3, rng), [])

    def test_birth_death_against_simulation(self):
        # Monte Carlo oracle: watch a long trajectory on S and compare its
        # empirical jump frequencies to the closed-form watched chain.
        from mcident.sampling import simulate

        r = np.random.default_rng(7)
        P = cp.birth_death(4, r)
        S = [0, 1]
        watched = cc.censor(P, S).entries
        traj = simulate(P, cc.stationary_distribution(P), 1_000_000, seed=5)
        obs = traj.states[np.isin(traj.states, S)]
        emp = empirical_transition_matrix(obs, 4)[np.ix_(S, S)]
        counts = np.array([(obs[:-1] == i).sum() for i in S], dtype=float)
        for a in range(2):
            for b in range(2):
                p = watched[a, b]
                se = np.sqrt(max(p * (1 - p), 1e-12) / counts[a])
                assert abs(emp[a, b] - p) <= 3.0 * se + 1e-9

    def test_censor_reversibility_and_stationarity(self):
        # 500 random reversible chains with random nonempty subsets: the
        # watched chain stays reversible and keeps the restricted law.
        for k in range(500):
            r = np.random.default_rng(1000 + k)
            d = int(r.integers(2, 9))
            P = cp.random_reversible(d, r)
            size = int(r.integers(1, d + 1))
            S = np.sort(r.choice(d, size=size, replace=False))
            W = cc.censor(P, S)
            pi = cc.stationary_distribution(P).entries
            pi_S = cc.stationary_distribution(W).entries
            expected = pi[S] / pi[S].sum()
            assert np.abs(pi_S - expected).max() <= 1e-8
            Q = pi_S[:, None] * W.entries
            assert np.abs(Q - Q.T).max() <= 1e-8


class TestMatrixPower:
    def test_k_one(self, rng):
        P = cp.random_reversible(3, rng)
        assert cc.matrix_power(P, 1).entries == pytest.approx(P.entries)

    def test_cycle_order(self):
        assert cc.matrix_power(THREE_CYCLE, 3).entries == pytest.approx(np.eye(3))

    def test_idempotent(self):
        for k in (2, 5, 17):
            assert cc.matrix_power(UNIFORM2, k).entries == pytest.approx(
                np.array(UNIFORM2), abs=1e-12
            )


class TestSpectralGap:
    def test_uniform_gap_one(self):
        assert cc.spectral_gap(UNIFORM2) == pytest.approx(1.0, abs=1e-12)

    def test_two_cycle_gap_two(self):
        # second largest signed eigenvalue is -1, so the gap exceeds 1
        assert cc.spectral_gap(TWO_CYCLE) == pytest.approx(2.0, abs=1e-12)

    def test_lazy_two_cycle(self):
        assert cc.spectral_gap(cc.lazy_version(TWO_CYCLE, 0.5)) == pytest.approx(1.0, abs=1e-12)

    def test_not_reversible(self):
        with pytest.raises(NotReversible):
            cc.spectral_gap(THREE_CYCLE)


class TestSpectralRadius:
    def test_stochastic_is_one(self, rng):
        P = cp.random_reversible(6, rng)
        assert cc.spectral_radius_nonneg(P.entries) == pytest.approx(1.0, abs=1e-10)

    def test_zero_matrix(self):
        assert cc.spectral_radius_nonneg(np.zeros((4, 4))) == 0.0

    def test_antidiagonal(self):
        assert cc.spectral_radius_nonneg(np.array([[0.0, 2], [2, 0]])) == pytest.approx(2.0, abs=1e-10)

    def test_rejects_negative(self):
        with pytest.raises(NegativeEntry):
            cc.spectral_radius_nonneg([[0.5, -0.5], [0.5, 0.5]])

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_eigendecomposition(self, seed):
        r = np.random.default_rng(seed)
        d = int(r.integers(2, 9))
        M = r.uniform(0, 1, (d, d)) * r.integers(0, 2, (d, d))
        expected = np.max(np.abs(np.linalg.eigvals(M)))
        assert cc.spectral_radius_nonneg(M) == pytest.approx(expected, abs=1e-9)
