import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcident import chain_core as cc
from mcident import corpus as cp
from mcident.errors import ChainTestError
from mcident.iid_test import _threshold, iid_sample_size, iid_test
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
            iid_test(r.choice(K, size=m, p=pv), pv, eps, delta).decision
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
            1 - iid_test(r.choice(K, size=m, p=far), pv, eps, delta).decision
            for t in range(100)
        )
        assert accepts / 100 <= delta + 0.04

    def test_impossible_symbol_forces_reject(self):
        m = iid_sample_size(1, 0.3, 0.1)
        for stray in (1, -1):
            v = iid_test(np.array([0] * m + [stray]), np.array([1.0]), 0.3, 0.1)
            assert v.decision == 1
            assert v.statistic == float("inf")

    def test_zero_probability_cell_forces_reject(self):
        m = iid_sample_size(3, 0.3, 0.1)
        pbar = np.array([0.5, 0.5, 0.0])
        v = iid_test(np.array([0, 1] * (m // 2) + [2]), pbar, 0.3, 0.1)
        assert v.decision == 1

    def test_decision_matches_threshold(self, rng):
        K = 5
        pbar = np.full(K, 1.0 / K)
        m = iid_sample_size(K, 0.25, 0.1)
        s = rng.choice(K, size=m)
        v = iid_test(s, pbar, 0.25, 0.1)
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
        v = iid_test(s, pv, 0.5, 0.1)
        want = loop_statistic(np.bincount(s, minlength=K).tolist(), pv.tolist())
        assert v.statistic == pytest.approx(want, rel=1e-12, abs=1e-9 * m)
        # one sample moved into a zero-probability cell, or outside [0, K)
        for bad in [int(i) for i in np.flatnonzero(pv == 0)[:1]] + [K, -1]:
            v = iid_test(np.append(s[1:], bad), pv, 0.5, 0.1)
            assert v.statistic == float("inf") and v.decision == 1

class TestInvariants:
    def test_determinism(self, rng):
        K = 4
        pbar = np.full(K, 0.25)
        s = rng.choice(K, size=iid_sample_size(K, 0.25, 0.1))
        assert iid_test(s, pbar, 0.25, 0.1) == iid_test(s, pbar, 0.25, 0.1)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_permutation_invariance(self, seed):
        r = np.random.default_rng(seed)
        K = int(r.integers(2, 7))
        pv = r.dirichlet(np.ones(K))
        m = iid_sample_size(K, 0.3, 0.2)
        s = r.choice(K, size=m, p=pv)
        v1 = iid_test(s, pv, 0.3, 0.2)
        r.shuffle(s)
        v2 = iid_test(s, pv, 0.3, 0.2)
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
            single += iid_test(s, pv, eps, delta).decision
            double += iid_test(np.concatenate([s, s]), pv, eps, delta).decision
        assert double >= single - 5  # two-sigma slack on 80 paired trials


class TestValidation:
    def test_too_few_samples(self):
        with pytest.raises(ChainTestError, match="2 samples, need"):
            iid_test(np.array([0, 1]), np.array([0.5, 0.5]), 0.2, 0.1)

    def test_bad_reference(self):
        with pytest.raises(ChainTestError, match="nonempty 1-D probability array"):
            iid_test(np.array([0]), np.array([]), 0.2, 0.1)
        with pytest.raises(ChainTestError, match="probabilities sum to"):
            iid_test(np.array([0]), np.array([0.7, 0.7]), 0.2, 0.1)
        with pytest.raises(ChainTestError, match="probabilities sum to nan"):
            iid_test(np.arange(4000) % 2, np.array([np.nan, 1.0]), 0.2, 0.1)

    def test_non_integer_samples(self):
        # floats would be truncated to codes and booleans read as codes 0/1
        for samples, dtype in ((np.arange(4000) % 4 + 0.9, "float64"),
                               (np.arange(4000) % 2 == 0, "bool")):
            with pytest.raises(ChainTestError, match=f"samples must be integers, got dtype {dtype}"):
                iid_test(samples, [0.25] * 4, 0.2, 0.1)

    @pytest.mark.parametrize("delta", [1e-18, 1e-300, 5e-324])
    def test_bootstrap_beyond_one_array(self, delta):
        # deltas for which ceil(20/delta) null statistics would not fit one
        # float64 array get a finite threshold, except a delta whose delta/2
        # underflows to 0, which is refused before any sample is looked at
        pv = np.array([0.5, 0.5])
        if delta / 2 == 0.0:
            with pytest.raises(ChainTestError, match="delta/2 underflows to 0"):
                iid_test(np.array([0, 1]), pv, 0.9, delta)
            return
        m = iid_sample_size(2, 0.9, delta)
        v = iid_test(np.arange(m) % 2, pv, 0.9, delta)
        assert np.isfinite(v.threshold) and v.decision == 0


def pooled_bootstrap(p, m, rows, seed):
    """rows null statistics of m samples drawn from p, a block at a time."""
    w = np.maximum(p, 1.0 / len(p))
    r = np.random.default_rng(seed)
    stats = []
    for start in range(0, rows, 2000):
        block = r.multinomial(m, p, size=min(2000, rows - start)).astype(float)
        stats.append((((block - m * p) ** 2 - block) / w).sum(axis=1))
    return np.concatenate(stats)


def threshold_case(law, K):
    """(reference, sample size) of one accuracy case."""
    r = np.random.default_rng(K)
    m = iid_sample_size(K, 0.3, 1 / 80)
    if law == "dense":
        return r.dirichlet(np.ones(K)), m
    if law == "dirichlet":  # with cells where fewer than one sample is expected
        pv = r.dirichlet(np.full(K, 0.3))
        while not (m * pv < 1).any():
            pv = r.dirichlet(np.full(K, 0.3))
        return pv, m
    d = int(np.sqrt(K - 1))  # the induced law of every state: K = d^2 + 1
    P = cc.lazy_version(cp.birth_death(d, np.random.default_rng(d)), 0.03)
    pv = induced_distribution(P, cc.stationary_distribution(P).entries, list(range(d))).p
    assert (pv == 0).any()
    return pv, iid_sample_size(K, 0.3 / np.sqrt(128), 1 / (10 * d))


class TestThreshold:
    @pytest.mark.parametrize("law, K", [
        (law, K) for law in ("dense", "dirichlet") for K in (4, 17, 65, 257)
    ] + [("birth_death", K) for K in (17, 65, 257)])
    def test_matches_pooled_bootstrap(self, law, K):
        # the closed form against 20 000 null statistics: the mean is k1
        # within 4 standard errors, the quantiles agree within 0.15 sd
        pv, m = threshold_case(law, K)
        p = pv / pv.sum()  # as iid_test normalizes it
        w = np.maximum(p, 1.0 / K)
        stats = pooled_bootstrap(p, m, 20_000, seed=K)
        sd = stats.std()
        assert abs(stats.mean() + m * (p * p / w).sum()) <= 4 * sd / np.sqrt(len(stats))
        for delta in (0.1, 1 / 80):
            want = np.quantile(stats, 1 - delta / 2)
            assert abs(_threshold(p, w, m, delta) - want) <= 0.15 * sd, delta

    def test_degenerate_references(self):
        # one cell: the statistic is the constant -m, which is not above it
        assert _threshold(np.array([1.0]), np.array([1.0]), 500, 0.1) == -500.0
        # nearly all mass on one cell: finite, and no lower than the mean (at
        # 1e-200 the third cumulant underflows to 0: the normal quantile)
        for tiny in (1e-3, 1e-9, 1e-15, 1e-200):
            p = np.array([1.0 - 3 * tiny, tiny, tiny, tiny])
            w = np.maximum(p, 0.25)
            t = _threshold(p, w, 205, 1 / 80)
            assert np.isfinite(t) and t >= -205 * (p * p / w).sum()
        # an int64 sample size past 2.1e6 gives the threshold of the int
        p = np.full(4, 0.25)
        assert _threshold(p, p, np.int64(3 * 10**6), 0.1) == _threshold(p, p, 3 * 10**6, 0.1)
