import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcident import chain_core as cc
from mcident import corpus as cp
from mcident.errors import ChainTestError
from mcident.iid_test import iid_sample_size, iid_test
from mcident.metrics import hellinger, induced_distribution


def tilted_far(pv: np.ndarray, eps: float) -> np.ndarray:
    """Alternate-sign tilt scaled to Hellinger distance exactly eps."""
    sign = np.where(np.arange(len(pv)) % 2 == 0, 1.0, -1.0)
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = (lo + hi) / 2.0
        w = pv * (1.0 + sign * mid)
        if hellinger(w / w.sum(), pv) < eps:
            lo = mid
        else:
            hi = mid
    w = pv * (1.0 + sign * hi)
    return w / w.sum()


class TestSampleSize:
    def test_support_scaling(self):
        m1 = iid_sample_size(16, 0.2, 0.1)
        m4 = iid_sample_size(64, 0.2, 0.1)
        assert m4 == pytest.approx(2 * m1, rel=0.01)

    def test_eps_scaling(self):
        m = iid_sample_size(10, 0.2, 0.1)
        m_half = iid_sample_size(10, 0.1, 0.1)
        assert m_half == pytest.approx(4 * m, rel=0.01)

    def test_bad_args(self):
        with pytest.raises(ChainTestError, match="support=0"):
            iid_sample_size(0, 0.2, 0.1)
        with pytest.raises(ChainTestError, match="eps=1.5"):
            iid_sample_size(4, 1.5, 0.1)
        with pytest.raises(ChainTestError, match="not finite"):
            iid_sample_size(4, 0.3, 0.1, c_iid=1e307)


class TestVerdicts:
    def test_null_false_reject_rate(self):
        delta, eps, K = 0.1, 0.25, 8
        pv = np.ones(K) / K
        m = iid_sample_size(K, eps, delta)
        r = np.random.default_rng(1)
        rejects = sum(
            iid_test(r.choice(K, size=m, p=pv), pv, eps, delta, seed=t).decision
            for t in range(100)
        )
        assert rejects / 100 <= delta + 0.04

    def test_far_false_accept_rate(self):
        delta, eps, K = 0.1, 0.25, 8
        pv = np.ones(K) / K
        far = tilted_far(pv, 0.3)
        m = iid_sample_size(K, eps, delta)
        r = np.random.default_rng(2)
        accepts = sum(
            1 - iid_test(r.choice(K, size=m, p=far), pv, eps, delta, seed=t).decision
            for t in range(100)
        )
        assert accepts / 100 <= delta + 0.04

    def test_impossible_symbol_forces_reject(self):
        m = iid_sample_size(1, 0.3, 0.1)
        for stray in (1, -1):
            v = iid_test(np.array([0] * m + [stray]), np.array([1.0]), 0.3, 0.1, seed=5)
            assert v.decision == 1
            assert v.statistic == float("inf")

    def test_zero_probability_cell_forces_reject(self):
        m = iid_sample_size(3, 0.3, 0.1)
        pbar = np.array([0.5, 0.5, 0.0])
        v = iid_test(np.array([0, 1] * (m // 2) + [2]), pbar, 0.3, 0.1, seed=6)
        assert v.decision == 1

    def test_decision_matches_threshold(self, rng):
        K = 5
        pbar = np.full(K, 1.0 / K)
        m = iid_sample_size(K, 0.25, 0.1)
        s = rng.choice(K, size=m)
        v = iid_test(s, pbar, 0.25, 0.1, seed=7)
        assert v.decision == int(v.statistic > v.threshold)
        assert v.sample_size == m


def loop_statistic(hist, p):
    """Sum_i ((N_i - m p_i)^2 - N_i) / max(p_i, 1/K), one cell at a time."""
    m, K = sum(hist), len(p)
    return sum(((n - m * q) ** 2 - n) / max(q, 1.0 / K) for n, q in zip(hist, p))


class TestStatistic:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_per_cell_loop(self, seed):
        r = np.random.default_rng(seed)
        K = int(r.integers(2, 40))
        pv = r.dirichlet(np.full(K, 0.5))
        pv[r.random(K) < 0.2] = 0.0
        pv[0] += 1.0 - pv.sum()
        m = iid_sample_size(K, 0.5, 0.1) + int(r.integers(0, 50))
        possible = np.flatnonzero(pv > 0)
        s = r.choice(possible, size=m, p=pv[possible] / pv[possible].sum())
        v = iid_test(s, pv, 0.5, 0.1, seed=seed)
        want = loop_statistic(np.bincount(s, minlength=K).tolist(), pv.tolist())
        assert v.statistic == pytest.approx(want, rel=1e-12, abs=1e-9 * m)
        # one sample moved into a zero-probability cell, or outside [0, K)
        for bad in [int(i) for i in np.flatnonzero(pv == 0)[:1]] + [K, -1]:
            v = iid_test(np.append(s[1:], bad), pv, 0.5, 0.1, seed=seed)
            assert v.statistic == float("inf") and v.decision == 1

    @pytest.mark.parametrize("S", [range(12), range(5)])
    def test_support_bootstrap_matches_full_alphabet(self, S):
        # birth_death(12) has 34 positive pair cells of 145 (and the leave
        # cell is zero on S = every state): the threshold of the bootstrap
        # drawn over the support equals the full-alphabet one within 1e-12
        P = cc.lazy_version(cp.birth_death(12, np.random.default_rng(12)), 0.03)
        pi = cc.stationary_distribution(P).entries
        nu = np.zeros(12)
        nu[list(S)] = pi[list(S)] / pi[list(S)].sum()
        pv = induced_distribution(P, nu, list(S)).p
        K, delta, eps = len(pv), 1.0 / 120, 0.3 / np.sqrt(128)
        m = iid_sample_size(K, eps, delta)
        p = pv / pv.sum()  # as iid_test normalizes it
        w = np.maximum(p, 1.0 / K)
        for seed in range(3):
            stats = []
            r = np.random.default_rng(seed)
            for _ in range(3):
                block = r.multinomial(m, p, size=800).astype(float)
                stats.append((((block - m * p) ** 2 - block) / w).sum(axis=1))
            want = np.quantile(np.concatenate(stats), 1 - delta / 2, method="higher")
            s = np.random.default_rng(seed + 10).choice(K, size=m, p=pv)
            v = iid_test(s, pv, eps, delta, seed=seed)
            assert v.threshold == pytest.approx(want, rel=1e-12)


class TestInvariants:
    def test_determinism(self, rng):
        K = 4
        pbar = np.full(K, 0.25)
        s = rng.choice(K, size=iid_sample_size(K, 0.25, 0.1))
        assert iid_test(s, pbar, 0.25, 0.1, seed=9) == iid_test(s, pbar, 0.25, 0.1, seed=9)

    @pytest.mark.parametrize(
        "K, delta, seed",
        [(1, 0.1, 0), (3, 0.05, 1), (65, 1 / 80, 2), (65, 1 / 80, 3), (577, 0.01, 4), (1025, 0.02, 5)],
    )
    def test_blocked_bootstrap_matches_one_draw(self, monkeypatch, K, delta, seed):
        # every block size gives the verdict of one multinomial draw of all B rows
        module = sys.modules["mcident.iid_test"]
        r = np.random.default_rng(seed)
        pv = r.dirichlet(np.ones(K))
        m = iid_sample_size(K, 0.9, delta) + seed
        s = r.choice(K, size=m, p=pv)
        verdicts = []
        for cells in (K, 7 * K + 3, 700 * K, 10**9):
            monkeypatch.setattr(module, "BOOTSTRAP_BLOCK_CELLS", cells)
            verdicts.append(iid_test(s, pv, 0.9, delta, seed=seed))
        assert all(v == verdicts[-1] for v in verdicts)

    def test_threshold_is_numpy_quantile(self, monkeypatch):
        # the largest statistics kept across blocks give, bit for bit, the
        # threshold np.quantile(method="higher") reads from all B of them
        module = sys.modules["mcident.iid_test"]
        r = np.random.default_rng(40)
        deltas = [0.9, 0.5, 0.3, 0.2, 0.1, 1 / 30, 0.02, 1 / 80, 0.01, 1 / 300, 0.002]
        deltas += r.uniform(0.002, 0.9, 25).tolist()
        for i, delta in enumerate(deltas):
            K = int(r.integers(2, 6))
            pv = r.dirichlet(np.ones(K))
            p = pv / pv.sum()  # as iid_test normalizes it
            m = iid_sample_size(K, 0.9, delta) + int(r.integers(0, 3))
            B = int(np.ceil(20 / delta))
            stats = module._statistic(np.random.default_rng(i).multinomial(m, p, size=B), m, p,
                                      np.maximum(p, 1.0 / K))
            want = np.quantile(stats, 1 - delta / 2, method="higher")
            s = r.choice(K, size=m, p=pv)
            for cells in (K, 13 * K, 10**9):
                monkeypatch.setattr(module, "BOOTSTRAP_BLOCK_CELLS", cells)
                assert iid_test(s, pv, 0.9, delta, seed=i).threshold.hex() == want.hex(), (delta, cells)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_permutation_invariance(self, seed):
        r = np.random.default_rng(seed)
        K = int(r.integers(2, 7))
        pv = r.dirichlet(np.ones(K))
        m = iid_sample_size(K, 0.3, 0.2)
        s = r.choice(K, size=m, p=pv)
        v1 = iid_test(s, pv, 0.3, 0.2, seed=11)
        r.shuffle(s)
        v2 = iid_test(s, pv, 0.3, 0.2, seed=11)
        assert v1 == v2

    def test_more_evidence_never_hurts_in_aggregate(self):
        # doubling a far sample should not lower the rejection rate
        delta, eps, K = 0.1, 0.25, 6
        pv = np.ones(K) / K
        far = tilted_far(pv, 0.25)
        m = iid_sample_size(K, eps, delta)
        r = np.random.default_rng(3)
        single = double = 0
        for t in range(80):
            s = r.choice(K, size=m, p=far)
            single += iid_test(s, pv, eps, delta, seed=t).decision
            double += iid_test(np.concatenate([s, s]), pv, eps, delta, seed=t).decision
        assert double >= single - 5  # two-sigma slack on 80 paired trials


class TestValidation:
    def test_too_few_samples(self):
        with pytest.raises(ChainTestError, match="2 samples, need"):
            iid_test(np.array([0, 1]), np.array([0.5, 0.5]), 0.2, 0.1, seed=1)

    def test_bad_reference(self):
        with pytest.raises(ChainTestError, match="nonempty 1-D probability array"):
            iid_test(np.array([0]), np.array([]), 0.2, 0.1, seed=1)
        with pytest.raises(ChainTestError, match="probabilities sum to"):
            iid_test(np.array([0]), np.array([0.7, 0.7]), 0.2, 0.1, seed=1)

    @pytest.mark.parametrize("delta", [1e-18, 1e-300, 5e-324])
    def test_bootstrap_beyond_one_array(self, delta):
        # ceil(20/delta) null statistics would not fit one float64 array; the
        # check comes before any sample is looked at
        with pytest.raises(ChainTestError, match="bootstrap draws"):
            iid_test(np.array([0, 1]), np.array([0.5, 0.5]), 0.9, delta, seed=1)
