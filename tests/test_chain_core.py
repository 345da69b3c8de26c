import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from mcident import chain_core as cc
from mcident import corpus as cp
from mcident import metrics as mt
from mcident.errors import ChainTestError

from conftest import empirical_transition_matrix

TWO_CYCLE = [[0.0, 1.0], [1.0, 0.0]]
THREE_CYCLE = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
UNIFORM2 = [[0.5, 0.5], [0.5, 0.5]]


def random_reversible_from_seed(seed, d_lo=2, d_hi=8):
    r = np.random.default_rng(seed)
    return cp.random_reversible(int(r.integers(d_lo, d_hi + 1)), r)


class TestTypes:
    def test_rejects_bad_row_sums(self):
        with pytest.raises(ChainTestError, match="row sums deviate from 1"):
            cc.TransitionMatrix(np.array([[0.5, 0.6], [0.5, 0.5]]))

    def test_rejects_negative_entries(self):
        with pytest.raises(ChainTestError, match=r"entries must lie in \[0, 1\]"):
            cc.TransitionMatrix(np.array([[1.1, -0.1], [0.5, 0.5]]))

    def test_rejects_nonsquare(self):
        with pytest.raises(ChainTestError, match="expected a square matrix"):
            cc.TransitionMatrix(np.ones((2, 3)) / 3)

    def test_entries_immutable(self):
        P = cc.TransitionMatrix(np.array(UNIFORM2))
        with pytest.raises(ValueError):
            P.entries[0, 0] = 0.0

    def test_prob_vector_validation(self):
        with pytest.raises(Exception):
            cc.ProbVector(np.array([0.5, 0.6]))

    def test_chain_class_consistency(self):
        # self-loops on every state do not make a reducible chain irreducible
        P = cc.TransitionMatrix(np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]]))
        assert not P.irreducible and not P.reversible

    @pytest.mark.parametrize(
        "entries, message",
        [
            ([[np.nan, 1.0], [0.5, 0.5]], "non-finite entries"),
            ([[np.inf, 0.0], [0.5, 0.5]], "non-finite entries"),
            ([[-np.inf, 1.0], [0.5, 0.5]], "non-finite entries"),
            # finite, but min + max overflows to inf
            ([[1e308, 1e308], [0.5, 0.5]], "entries must lie in"),
            ([[-1e308, 1.0], [0.5, 0.5]], "entries must lie in"),
        ],
    )
    def test_matrix_check_messages(self, entries, message):
        with pytest.raises(ChainTestError, match=message):
            cc.TransitionMatrix(np.array(entries))

    @pytest.mark.parametrize("entries", [[np.nan, 1.0], [np.inf, 0.0], [-1e308, 1.0]])
    def test_prob_vector_check_messages(self, entries):
        with pytest.raises(ChainTestError, match="entries must be nonnegative"):
            cc.ProbVector(np.array(entries))

    def test_entries_are_an_owned_clipped_copy(self):
        arr = np.array([[1.0 + 1e-11, -1e-11], [0.5, 0.5]])
        P = cc.TransitionMatrix(arr)
        assert np.array_equal(P.entries, [[1.0, 0.0], [0.5, 0.5]])
        assert arr[0, 1] == -1e-11 and arr.flags.writeable
        vec = np.array([1.0 + 1e-11, -1e-11])
        v = cc.ProbVector(vec)
        assert np.array_equal(v.entries, [1.0, 0.0]) and not v.entries.flags.writeable
        assert vec[1] == -1e-11


class TestValidate:
    """The classification flags cached on TransitionMatrix."""

    def test_identity_two_absorbing_states(self):
        P = cc.TransitionMatrix(np.eye(2))
        assert not P.irreducible

    def test_two_cycle_periodic(self):
        P = cc.TransitionMatrix(np.array(TWO_CYCLE, dtype=float))
        assert P.irreducible and P.reversible

    def test_positive_chain_ergodic(self):
        P = cc.TransitionMatrix(np.array(UNIFORM2))
        assert P.irreducible and P.reversible

    def test_three_cycle_not_reversible(self):
        P = cc.TransitionMatrix(np.array(THREE_CYCLE, dtype=float))
        assert P.irreducible and not P.reversible

    def test_single_state(self):
        P = cc.TransitionMatrix(np.array([[1.0]]))
        assert P.irreducible and P.reversible

    def test_reversible_flag_on_the_matrix(self, rng):
        # each flag is decided once and cached; a reducible chain is not
        # reversible, and require_reversible says which part fails
        for entries, want in [(UNIFORM2, True), (THREE_CYCLE, False), (np.eye(2), False)]:
            P = cc.TransitionMatrix(np.array(entries, dtype=float))
            assert P.reversible is want
            assert {"irreducible", "reversible"} <= P.__dict__.keys()
        with pytest.raises(ChainTestError, match="chain is not irreducible"):
            cc.require_reversible(np.eye(2))
        P = cp.random_reversible(5, rng)
        assert cc.require_reversible(P) is P and P.reversible


def levels(P: cc.TransitionMatrix) -> np.ndarray:
    """Breadth-first levels from state 0 over P's support graph."""
    return cc._bfs_levels(cc._support(P.entries))


def strongly_connected(P: np.ndarray) -> bool:
    graph = csr_matrix(P > cc.SUPPORT_TOL)
    return connected_components(graph, directed=True, connection="strong")[0] == 1


class TestClassification:
    """Breadth-first irreducibility against scipy's strong components."""

    def test_random_supports(self):
        r = np.random.default_rng(2024)
        irreducible = 0
        for _ in range(3000):
            d = int(r.integers(1, 13))
            supp = r.random((d, d)) < r.uniform(0.05, 0.6)
            supp[np.arange(d), r.integers(0, d, size=d)] = True  # no empty row
            W = np.where(supp, r.uniform(0.1, 1.0, (d, d)), 0.0)
            # entries at or below SUPPORT_TOL are not edges
            W[(r.random((d, d)) < 0.1) & ~supp] = cc.SUPPORT_TOL
            P = cc.TransitionMatrix(W / W.sum(axis=1, keepdims=True))
            assert P.irreducible == strongly_connected(P.entries)
            irreducible += P.irreducible
        assert 300 < irreducible < 2700

    def test_long_cycle(self):
        P = cc.TransitionMatrix(np.roll(np.eye(257), 1, axis=1))
        assert P.irreducible
        assert levels(P).max() == 256

    def test_long_path(self, rng):
        P = cp.birth_death(1000, rng)
        assert P.irreducible and strongly_connected(P.entries)
        assert np.array_equal(levels(P), np.arange(1000))
        one_way = np.triu(P.entries)
        one_way[-1, -1] = 1.0
        Q = cc.TransitionMatrix(one_way / one_way.sum(axis=1, keepdims=True))
        assert levels(Q).max() == 999 and not Q.irreducible

    def test_single_state(self):
        P = cc.TransitionMatrix([[1.0]])
        assert P.irreducible and levels(P).tolist() == [0]


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
        with pytest.raises(ChainTestError, match="chain is not irreducible"):
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


def fallback_chains(rng):
    """Entries of well-conditioned irreducible chains, the first three
    reversible and the rest not."""
    reversible = [cp.random_reversible(6, rng), cp.birth_death(7, rng),
                  cp.planted_two_block((3, 4), rng, cross_weight=1e-3)]
    return [P.entries for P in reversible] + [
        cp.random_irreducible(5, rng).entries,
        np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.3, 0.0, 0.7]]),
        np.array(THREE_CYCLE, dtype=float),
    ]


class TestStationarySvdFallback:
    """The SVD null-space solve that runs when the bordered solve raises or
    misses its residual."""

    @pytest.fixture
    def svd_calls(self, monkeypatch):
        calls = []
        svd = np.linalg.svd

        def counted(a, *args, **kwargs):
            calls.append(a.shape)
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(cc.np.linalg, "svd", counted)
        return calls

    @pytest.mark.parametrize("failure", ["raises", "wrong-vector"])
    def test_matches_direct_solve(self, rng, monkeypatch, svd_calls, failure):
        chains = fallback_chains(rng)
        direct = [cc.TransitionMatrix(P).pi for P in chains]
        assert svd_calls == []

        def solve(A, b):
            if failure == "raises":
                raise np.linalg.LinAlgError("singular matrix")
            # positive, of unit mass, and not a fixed point of any chain here
            return np.arange(1.0, len(b) + 1.0) / (len(b) * (len(b) + 1) / 2)

        monkeypatch.setattr(cc.np.linalg, "solve", solve)
        for P, pi in zip(chains, direct):
            back = cc.TransitionMatrix(P).pi
            assert np.abs(back - pi).max() <= 1e-12
            assert np.abs(back @ P - back).max() <= 1e-10
        assert len(svd_calls) == len(chains)

    def test_residual_guard_raises(self, rng, monkeypatch):
        # both solves give a vector that is not stationary
        def solve(A, b):
            raise np.linalg.LinAlgError("singular matrix")

        def svd(a, *args, **kwargs):
            return None, None, np.arange(1.0, len(a) + 1.0)[None, :]

        monkeypatch.setattr(cc.np.linalg, "solve", solve)
        monkeypatch.setattr(cc.np.linalg, "svd", svd)
        for P in fallback_chains(rng):
            with pytest.raises(ChainTestError, match="stationary solve failed"):
                cc.TransitionMatrix(P).pi


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
        with pytest.raises(ChainTestError, match="2 != 3"):
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
        with pytest.raises(ChainTestError, match="alpha=1.5"):
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
        with pytest.raises(ChainTestError, match="S must be nonempty"):
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
        with pytest.raises(ChainTestError, match="detailed balance violated"):
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
        with pytest.raises(ChainTestError, match="min entry"):
            cc.spectral_radius_nonneg([[0.5, -0.5], [0.5, 0.5]])

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_eigendecomposition(self, seed):
        r = np.random.default_rng(seed)
        d = int(r.integers(2, 9))
        M = r.uniform(0, 1, (d, d)) * r.integers(0, 2, (d, d))
        expected = np.max(np.abs(np.linalg.eigvals(M)))
        assert cc.spectral_radius_nonneg(M) == pytest.approx(expected, abs=1e-9)
