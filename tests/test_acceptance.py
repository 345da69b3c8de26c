"""Acceptance gate: end-to-end statistical guarantees at pinned tolerances.

Each test prints one pass/fail line. The corpus is five reversible
reference chains (d in {4, 6, 8}) with eps-far partners whose stationary
laws stay within ratio distance eps/2. Everything is seeded; reruns are
bit-for-bit identical.
"""

import itertools
from math import log

import numpy as np
import pytest
from scipy import stats

from mcident import chain_core as cc
from mcident import corpus as cp
from mcident import identity as idn
from mcident import metrics as mt
from mcident import partition as pt
from mcident import sampling as sp
from mcident.iid_test import iid_sample_size, iid_test

EPS = 0.3
# rounding approximation budget: the sweep cut's ratio stays within
# C_ROUND * log d of the brute-force optimum at the 95th percentile
C_ROUND = 4.0
ALPHA_LAZY = EPS**2 / (2.0 * np.sqrt(2.0))


def _line(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {status}: {detail}")
    assert ok, detail


def far_blocked_pair(sizes, rng, distance_min, cross=1e-5, spread=2.0, tries=100):
    """Two-block reversible pair, anti-correlated inside the blocks, same
    stationary law, chain distance at least distance_min."""
    d = sum(sizes)
    a = sizes[0]
    mask = np.zeros((d, d), bool)
    mask[:a, :a] = True
    mask[a:, a:] = True
    for _ in range(tries):
        r = cp.random_target(d, rng, skew=0.5)
        Z = rng.normal(size=(d, d))
        Z = (Z + Z.T) / 2.0
        P = cp.reversible_with_rowsums(np.where(mask, np.exp(spread * Z) + 0.01, cross), r)
        Pb = cp.reversible_with_rowsums(np.where(mask, np.exp(-spread * Z) + 0.01, cross), r)
        if mt.chain_distance(P, Pb) >= distance_min:
            return P, Pb
    raise RuntimeError("no blocked pair found")


@pytest.fixture(scope="module")
def corpus():
    rng = np.random.default_rng(2024)
    entries = []
    far, ref = cp.far_reversible_pair(4, rng, EPS, 0.15, target=np.array([0.05, 0.15, 0.30, 0.50]))
    entries.append(("A-d4-skewed", ref, far))
    far, ref = cp.far_reversible_pair(4, rng, EPS, 0.0, target=np.array([0.06, 0.14, 0.35, 0.45]))
    entries.append(("B-d4-shared-law", ref, far))
    far, ref = cp.far_reversible_pair(
        6, rng, EPS, 0.15, target=np.array([0.09, 0.11, 0.13, 0.15, 0.24, 0.28])
    )
    entries.append(("C-d6", ref, far))
    far, ref = far_blocked_pair((3, 3), rng, EPS)
    entries.append(("D-d6-two-blocks", ref, far))
    far, ref = cp.far_reversible_pair(
        8, rng, EPS, 0.15,
        target=np.array([0.10, 0.10, 0.11, 0.12, 0.13, 0.13, 0.15, 0.16]),
    )
    entries.append(("E-d8", ref, far))
    return entries


class TestCriterion1MainTheorem:
    def test_accept_and_reject_rates(self, corpus):
        trials = 100
        details = []
        all_ok = True
        for name, ref, far in corpus:
            pibar = cc.stationary_distribution(ref).entries
            m = idn.trajectory_budget(ref.d, float(pibar.min()), EPS)
            lazy_ref = cc.lazy_version(ref, ALPHA_LAZY)
            lazy_far = cc.lazy_version(far, ALPHA_LAZY)
            mu_ref = cc.stationary_distribution(lazy_ref)
            mu_far = cc.stationary_distribution(lazy_far)
            accepts = rejects = 0
            for t in range(trials):
                traj = sp.simulate(lazy_ref, mu_ref, m, seed=1_000_000 + t)
                rep = idn.identity_test(ref, traj, idn.TestConfig(eps=EPS, seed=2_000_000 + t))
                accepts += 1 - rep.verdict
                traj = sp.simulate(lazy_far, mu_far, m, seed=3_000_000 + t)
                rep = idn.identity_test(ref, traj, idn.TestConfig(eps=EPS, seed=4_000_000 + t))
                rejects += rep.verdict
            ok = accepts / trials >= 0.6 and rejects / trials >= 0.6
            all_ok &= ok
            details.append(f"{name} accept {accepts}/{trials} reject {rejects}/{trials} (m={m})")
        _line(1, all_ok, "; ".join(details))


class TestCriterion2PartitionCertification:
    def test_zero_violations(self, corpus):
        runs = 0
        by = {"spectral": 0, "LP": 0, "singleton": 0}
        for name, ref, _ in corpus:
            for beta in (0.05, 0.1, 0.2):
                for seed in range(50):
                    part = pt.partition_states(ref, beta=beta, seed=seed, certify=True)
                    assert part.certificates["certified"]
                    runs += 1
                    for cert in part.certificates["components"]:
                        if len(cert["states"]) == 1:
                            by["singleton"] += 1
                        elif cert["lp_phi_lower_bound"] is None:
                            by["spectral"] += 1
                        else:
                            by["LP"] += 1
        counts = ", ".join(f"{n} {how}" for how, n in by.items())
        _line(2, True, f"{runs} certified partition runs, zero violations; components: {counts}")


class TestCriterion3RoundingApproximation:
    def test_factor_at_95th_percentile(self):
        factors = []
        for k in range(100):
            r = np.random.default_rng(50_000 + k)
            d = int(r.integers(4, 11))
            P = cp.random_reversible(d, r)
            I = tuple(range(d))
            S = pt.find_comp(P, pt.solve_spccc_lp(P, I), seed=k)
            got = pt.cut_metric_ratio(P, S, I)
            best = min(
                pt.cut_metric_ratio(P, C, I)
                for size in range(1, d)
                for C in itertools.combinations(range(d), size)
            )
            factors.append(got / best / log(d))
        p95 = float(np.quantile(factors, 0.95))
        _line(3, p95 <= C_ROUND,
              f"rounding factor p95 = {p95:.3f} x log d (budget {C_ROUND})")


class TestCriterion4CensorOracle:
    def test_watched_chain_matches_simulation(self):
        worst_z = 0.0
        worst_db = 0.0
        for k in range(20):
            r = np.random.default_rng(70_000 + k)
            d = int(r.integers(3, 7))
            P = cp.random_reversible(d, r)
            size = int(r.integers(2, d + 1))
            S = np.sort(r.choice(d, size=size, replace=False))
            watched = cc.censor(P, S).entries
            pi_S = cc.stationary_distribution(cc.censor(P, S)).entries
            Q = pi_S[:, None] * watched
            worst_db = max(worst_db, float(np.abs(Q - Q.T).max()))
            traj = sp.simulate(P, cc.stationary_distribution(P), 1_000_000, seed=80_000 + k)
            obs = traj.states[np.isin(traj.states, S)]
            pos = {int(s): a for a, s in enumerate(S)}
            seq = np.array([pos[int(x)] for x in obs])
            counts = np.zeros((size, size))
            np.add.at(counts, (seq[:-1], seq[1:]), 1.0)
            visits = counts.sum(axis=1)
            emp = counts / np.maximum(visits[:, None], 1.0)
            for a in range(size):
                for b in range(size):
                    p = watched[a, b]
                    se = np.sqrt(max(p * (1 - p), 1e-12) / visits[a])
                    worst_z = max(worst_z, abs(emp[a, b] - p) / max(se, 1e-12))
        ok = worst_z <= 3.0 and worst_db < 1e-8
        _line(4, ok, f"worst frequency z-score {worst_z:.2f} (<= 3), "
                     f"worst detailed-balance residual {worst_db:.2e} (< 1e-8)")


class TestCriterion5DistanceProperties:
    def test_thousand_pair_suite(self):
        rep = idn.property_suite(seed=77, pairs=1000)
        fam = rep.family[-1]
        ok = rep.passed and fam.distance < 0.05 and fam.stationary_hellinger_sq > 0.25
        _line(5, ok,
              f"{sum(rep.checks.values())} checks over 1000 pairs, "
              f"{len(rep.violations)} violations; family endpoint distance "
              f"{fam.distance:.4f}, stationary hel^2 {fam.stationary_hellinger_sq:.3f}")


class TestCriterion6HellingerSeparation:
    def test_exhaustive_subset_separation(self):
        rng = np.random.default_rng(90_001)
        bound = EPS * EPS / 128.0
        min_ratio = np.inf
        pairs = 0
        while pairs < 200:
            d = int(rng.integers(3, 9))
            P, Pbar = cp.far_reversible_pair(d, rng, EPS, EPS / 2.0)
            pibar = cc.stationary_distribution(Pbar).entries
            pairs += 1
            for size in range(1, d + 1):
                for S in itertools.combinations(range(d), size):
                    ref = mt.induced_distribution(Pbar, pibar, S)
                    if ref.infinity_mass > EPS / 16.0:
                        continue
                    other = mt.induced_distribution(P, pibar, S)
                    h2 = mt.hellinger(other.p, ref.p) ** 2
                    min_ratio = min(min_ratio, h2 / bound)
        _line(6, min_ratio >= 1.0,
              f"200 pairs, exhaustive subsets: min separation {min_ratio:.2f} x eps^2/128")


class TestCriterion7IidTesterContract:
    def test_operating_characteristics(self):
        delta, eps = 0.1, 0.25
        trials = 200
        details = []
        all_ok = True
        rng = np.random.default_rng(110_000)
        for K in (4, 10, 25, 50):
            pv = rng.dirichlet(np.full(K, 5.0))
            m = iid_sample_size(K, eps, delta)
            false_rej = sum(
                iid_test(rng.choice(K, size=m, p=pv), pv, eps, delta,
                         seed=120_000 + t).decision
                for t in range(trials)
            )
            sign = np.where(np.arange(K) % 2 == 0, 1.0, -1.0)
            lo, hi = 0.0, 1.0
            for _ in range(60):
                mid = (lo + hi) / 2.0
                w = pv * (1.0 + sign * mid)
                if mt.hellinger(w / w.sum(), pv) < eps:
                    lo = mid
                else:
                    hi = mid
            w = pv * (1.0 + sign * hi)
            far = w / w.sum()
            false_acc = sum(
                1 - iid_test(rng.choice(K, size=m, p=far), pv, eps, delta,
                             seed=130_000 + t).decision
                for t in range(trials)
            )
            ok = false_rej / trials <= delta + 0.04 and false_acc / trials <= delta + 0.04
            all_ok &= ok
            details.append(f"K={K}: FR {false_rej/trials:.3f} FA {false_acc/trials:.3f}")
        _line(7, all_ok, "; ".join(details) + f" (bound {delta + 0.04})")


class TestCriterion8GeneratorGoodnessOfFit:
    def test_chi_squared_over_100_runs(self):
        passes = 0
        runs = 100
        n_samples = 100_000
        r0 = np.random.default_rng(140_000)
        P = cp.random_reversible(5, r0)
        pi = cc.stationary_distribution(P).entries
        for run in range(runs):
            S = list(range(5)) if run % 2 == 0 else [0, 1, 2]
            nu = np.zeros(5)
            nu[S] = pi[S] / pi[S].sum()
            ref = mt.induced_distribution(P, nu, S)
            mass_S = pi[S].sum()
            m = int(1.6 * n_samples / mass_S)
            traj = sp.simulate(P, pi, m, seed=150_000 + run)
            samples = sp.iid_generate(traj, S, nu, n_samples, seed=160_000 + run)
            assert samples is not None
            expected = ref.p * n_samples
            observed = np.bincount(samples, minlength=len(ref.p)).astype(float)
            # pool cells with tiny expectation to keep the test valid
            keep = expected >= 5.0
            obs = np.append(observed[keep], observed[~keep].sum())
            exp = np.append(expected[keep], expected[~keep].sum())
            obs, exp = obs[exp > 0], exp[exp > 0]
            exp *= obs.sum() / exp.sum()
            p_value = stats.chisquare(obs, exp).pvalue
            passes += p_value >= 0.01
        _line(8, passes >= 98, f"goodness-of-fit passed {passes}/100 runs at the 1% level")


class TestCriterion9Concentration:
    def test_visit_count_event(self):
        hits = trials = 0
        for k in range(20):
            r = np.random.default_rng(170_000 + k)
            P = cp.random_reversible(int(r.integers(3, 9)), r)
            pi = cc.stationary_distribution(P).entries
            m = sp.required_visits(float(pi.min()), cc.spectral_gap(P), 0.1)
            for t in range(10):
                traj = sp.simulate(P, pi, m, seed=180_000 + 100 * k + t)
                counts = np.bincount(traj.states, minlength=P.d)
                hits += bool(np.all(counts >= pi * m / 2.0))
                trials += 1
        rate = hits / trials
        ok_visits = rate >= 0.9

        r = np.random.default_rng(190_000)
        P = cp.hub_and_leaves(3, 4, r)
        part = pt.partition_states(P, beta=0.1, seed=5)
        alpha = part.certificates["tail"]["min_escape_ratio"]
        pi = cc.stationary_distribution(P).entries
        pi_T_star = pi[list(part.tail)].min()
        m = int(np.ceil(16.0 * log(1.0 / pi_T_star) * log(10.0) / alpha**2))
        freq = pt.tail_occupancy_check(P, part.tail, alpha=alpha, m=m, trials=200, seed=6)
        ok_escape = freq >= 0.9
        _line(9, ok_visits and ok_escape,
              f"visit-count event {rate:.3f} of {trials} trials, "
              f"escape-count event {freq:.3f} of 200 trials (each >= 0.9)")
