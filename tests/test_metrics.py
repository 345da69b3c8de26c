import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcident import chain_core as cc
from mcident import corpus as cp
from mcident import metrics as mt
from mcident import partition as pt
from mcident.errors import ChainTestError


def two_state_distance_oracle(P, Pbar):
    """Closed-form spectral radius of a 2x2 nonnegative matrix."""
    M = np.sqrt(np.asarray(P, float) * np.asarray(Pbar, float))
    tr, det = M.trace(), np.linalg.det(M)
    lam = (tr + np.sqrt(tr * tr - 4 * det)) / 2.0
    return 1.0 - lam


def masked_chain(d, r):
    """A random d-state chain with random zero entries and at least one
    nonzero entry per row."""
    M = r.uniform(0, 1, (d, d)) * r.integers(0, 2, (d, d))
    M[np.arange(d), r.integers(0, d, d)] += r.uniform(0.1, 1, d)
    return M / M.sum(axis=1, keepdims=True)


def dists_from_seed(seed, d_lo=2, d_hi=10):
    r = np.random.default_rng(seed)
    d = int(r.integers(d_lo, d_hi + 1))
    p = r.dirichlet(np.ones(d))
    q = r.dirichlet(np.ones(d))
    return p, q


def total_variation(p, q):
    return 0.5 * np.abs(p - q).sum()


class TestHellinger:
    def test_equal_is_zero(self):
        assert mt.hellinger([0.5, 0.5], [0.5, 0.5]) == 0.0

    def test_disjoint_is_one(self):
        assert mt.hellinger([1, 0], [0, 1]) == pytest.approx(1.0)

    def test_direct_value_and_alternate_form(self):
        got = mt.hellinger([0.5, 0.5], [0.9, 0.1])
        assert got == pytest.approx(np.sqrt(1 - (np.sqrt(0.45) + np.sqrt(0.05))), abs=1e-14)
        alt = np.sqrt(0.5 * ((np.sqrt(0.5) - np.sqrt(0.9)) ** 2 + (np.sqrt(0.5) - np.sqrt(0.1)) ** 2))
        assert got == pytest.approx(alt, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ChainTestError, match=r"\(1,\) vs \(2,\)"):
            mt.hellinger([1.0], [0.5, 0.5])


class TestTotalVariation:
    """Hellinger against the sandwich hel^2 <= tv <= sqrt(2) hel."""

    def test_sandwich_bulk(self):
        for k in range(10_000):
            p, q = dists_from_seed(k)
            h = mt.hellinger(p, q)
            tv = total_variation(p, q)
            assert h * h <= tv + 1e-12
            assert tv <= np.sqrt(2.0) * h + 1e-12

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_sandwich_property(self, seed):
        p, q = dists_from_seed(seed)
        h = mt.hellinger(p, q)
        tv = total_variation(p, q)
        assert h * h - 1e-12 <= tv <= np.sqrt(2.0) * h + 1e-12


class TestChainDistance:
    def test_self_distance_zero(self, rng):
        P = cp.random_reversible(5, rng)
        assert mt.chain_distance(P, P) <= 1e-10

    def test_disjoint_rows(self):
        P = [[1.0, 0.0], [0.0, 1.0]]
        Q = [[0.0, 1.0], [1.0, 0.0]]
        assert mt.chain_distance(P, Q) == pytest.approx(1.0)

    def test_periodic(self):
        # sqrt(P o P) of the two-cycle is the two-cycle: eigenvalues +1 and -1
        assert mt.chain_distance([[0.0, 1.0], [1.0, 0.0]], [[0.0, 1.0], [1.0, 0.0]]) == 0.0

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_eigendecomposition(self, seed):
        # the zero masks make sqrt(P o Pbar) often reducible or periodic
        r = np.random.default_rng(seed)
        d = int(r.integers(2, 9))
        P, Pbar = masked_chain(d, r), masked_chain(d, r)
        rho = np.abs(np.linalg.eigvals(np.sqrt(P * Pbar))).max()
        expected = min(max(1.0 - rho, 0.0), 1.0)
        expected = 0.0 if expected < 1e-12 else expected
        assert mt.chain_distance(P, Pbar) == pytest.approx(expected, abs=1e-9)

    def test_symmetry(self, rng):
        for _ in range(20):
            P = cp.random_reversible(5, rng)
            Q = cp.random_reversible(5, rng)
            assert abs(mt.chain_distance(P, Q) - mt.chain_distance(Q, P)) <= 1e-12

    def test_two_state_family_against_oracle(self):
        vals = []
        for a in (0.1, 0.01, 0.001):
            P = [[1 - a, a], [0.5, 0.5]]
            Pb = [[1 - a, a], [a, 1 - a]]
            got = mt.chain_distance(P, Pb)
            assert got == pytest.approx(two_state_distance_oracle(P, Pb), abs=1e-9)
            vals.append(got)
        assert vals[0] > vals[1] > vals[2]  # vanishes as the chains merge

    def test_shape_mismatch(self):
        with pytest.raises(ChainTestError, match="2 != 3"):
            mt.chain_distance(np.eye(2), np.eye(3))


class TestRatioDistance:
    def test_equal(self):
        assert mt.ratio_distance([0.5, 0.5], [0.5, 0.5]) == 0.0

    def test_direct(self):
        assert mt.ratio_distance([0.6, 0.4], [0.5, 0.5]) == pytest.approx(0.2)

    def test_two_state_family(self):
        pi = cc.stationary_distribution([[0.9, 0.1], [0.5, 0.5]]).entries
        assert mt.ratio_distance(pi, [0.5, 0.5]) == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_zero_denominator(self):
        with pytest.raises(ChainTestError, match="zero entry"):
            mt.ratio_distance([0.5, 0.5, 0.0], [0.5, 0.5, 0.0])


class TestInducedDistribution:
    def test_full_set_is_flat_edge_measure(self, rng):
        P = cp.random_reversible(4, rng)
        pi = cc.stationary_distribution(P).entries
        ind = mt.induced_distribution(P, pi, range(4))
        assert ind.infinity_mass == pytest.approx(0.0, abs=1e-12)
        Q = pi[:, None] * P.entries
        assert np.abs(ind.p[:-1] - Q.ravel()).max() <= 1e-12

    def test_singleton(self):
        P = [[0.9, 0.1], [0.5, 0.5]]
        ind = mt.induced_distribution(P, [1.0, 0.0], [0])
        assert ind.p[0] == pytest.approx(0.9)
        assert ind.infinity_mass == pytest.approx(0.1)

    def test_alphabet_order_and_size(self, rng):
        P = cp.random_reversible(5, rng)
        pi = cc.stationary_distribution(P).entries
        ind = mt.induced_distribution(P, pi, [1, 3])
        # codes 0..3 are the pairs (1, 1), (1, 3), (3, 1), (3, 3); code 4 leaves S
        assert ind.S == (1, 3) and ind.p.shape == (5,)
        block = (pi[:, None] * P.entries)[np.ix_([1, 3], [1, 3])] / pi[[1, 3]].sum()
        assert np.abs(ind.p[:4] - block.ravel()).max() <= 1e-12
        assert ind.infinity_mass == ind.p[-1]
        assert ind.p.sum() == pytest.approx(1.0, abs=1e-12)

    def test_zero_mass_subset(self):
        with pytest.raises(ChainTestError, match=r"nu\(S\) = 0"):
            mt.induced_distribution([[0.5, 0.5], [0.5, 0.5]], [1.0, 0.0], [1])


class TestCheegerBruteforce:
    """The Cheeger constant by enumeration: min_internal_cut_ratio over all states."""

    def test_uniform_two_state(self):
        # both cuts are singletons with Q(0,1)/pi(0) = 0.25 / 0.5
        P = cc.TransitionMatrix(np.full((2, 2), 0.5))
        assert mt.min_internal_cut_ratio(P, np.arange(2)) == pytest.approx(0.5)

    def test_matches_enumeration(self, rng):
        P = cp.random_reversible(6, rng)
        pi = cc.stationary_distribution(P).entries
        Q = pi[:, None] * P.entries
        got = mt.min_internal_cut_ratio(P, np.arange(6))
        best = np.inf
        for r in range(1, 6):
            for S in itertools.combinations(range(6), r):
                S = list(S)
                rest = [i for i in range(6) if i not in S]
                best = min(best, Q[np.ix_(S, rest)].sum() / min(pi[S].sum(), pi[rest].sum()))
        assert got == pytest.approx(best, abs=1e-12)

    def test_near_disconnected_blocks_scale(self):
        r = np.random.default_rng(3)
        vals = []
        for delta in (1e-3, 1e-4):
            P = cp.planted_two_block((3, 3), r, cross_weight=delta)
            vals.append(mt.min_internal_cut_ratio(P, np.arange(6)))
        assert vals[0] == pytest.approx(10 * vals[1], rel=0.5)  # linear in the coupling

    def test_cheeger_inequality(self):
        for k in range(60):
            r = np.random.default_rng(500 + k)
            P = cp.random_reversible(int(r.integers(2, 8)), r)
            gap = cc.spectral_gap(P)
            phi = mt.min_internal_cut_ratio(P, np.arange(P.d))
            assert gap >= phi * phi / 2.0 - 1e-12


class TestMinCutMetricRatio:
    def test_matches_enumeration(self):
        # against the validating cut_metric_ratio, one subset at a time, on
        # the whole state space and on proper subsets I
        r = np.random.default_rng(31)
        for k in range(12):
            d = int(r.integers(2, 9))
            P = cp.random_reversible(d, r)
            I = list(range(d)) if k % 2 else sorted(r.choice(d, size=int(r.integers(2, d + 1)), replace=False))
            best = min(
                pt.cut_metric_ratio(P, S, I)
                for size in range(1, len(I))
                for S in itertools.combinations(I, size)
            )
            assert mt.min_cut_metric_ratio(P, I) == pytest.approx(best, rel=1e-12)

    def test_needs_two_states(self, rng):
        with pytest.raises(ChainTestError, match=r"need \|I\| >= 2"):
            mt.min_cut_metric_ratio(cp.random_reversible(3, rng), [1])


class TestMinEscapeRatio:
    def test_singleton(self, rng):
        # {2} is the only nonempty subset of T; it escapes at rate 1 - P(2,2)
        P = cp.random_reversible(5, rng)
        assert mt.min_escape_ratio(P, np.array([2])) == pytest.approx(1.0 - P.entries[2, 2], abs=1e-12)

    def test_zero_submatrix(self):
        # no step stays inside T = {0, 3}, so every subset of T escapes at rate 1
        P = cc.TransitionMatrix(np.array([
            [0.0, 0.5, 0.5, 0.0],
            [0.5, 0.0, 0.0, 0.5],
            [0.5, 0.0, 0.0, 0.5],
            [0.0, 0.5, 0.5, 0.0],
        ]))
        assert mt.min_escape_ratio(P, np.array([0, 3])) == pytest.approx(1.0, abs=1e-12)


class TestHellingerSeparation:
    def test_far_pairs_separate_on_retained_subsets(self):
        # For eps-far pairs with close stationary laws, every subset that
        # retains at least 1 - eps/16 of the reference's induced mass shows
        # squared Hellinger separation at least eps^2/128. All subsets
        # enumerated (d <= 8).
        eps = 0.3
        rng = np.random.default_rng(42)
        for trial in range(25):
            d = int(rng.integers(3, 9))
            P, Pbar = cp.far_reversible_pair(d, rng, distance_min=eps, ratio_max=eps / 2)
            pibar = cc.stationary_distribution(Pbar).entries
            for size in range(1, d + 1):
                for S in itertools.combinations(range(d), size):
                    ref = mt.induced_distribution(Pbar, pibar, S)
                    if 1.0 - ref.infinity_mass < 1.0 - eps / 16.0:
                        continue
                    other = mt.induced_distribution(P, pibar, S)
                    h = mt.hellinger(other.p, ref.p)
                    assert h * h >= eps * eps / 128.0
