#!/usr/bin/env python3
"""Monte Carlo calibration of the named constants.

Reproduces the measurements behind the module constants:
  * iid tester operating characteristics across values of iid_test.C_IID,
  * visit-count event frequency across values of sampling.C_VIS,
  * end-to-end accept/reject rates across values of identity.C_LEN
    (reduced trials),
  * sweep-cut approximation factors against the C_ROUND budget.

Usage: python scripts/calibrate_constants.py [--seed 7] [--trials 100]
"""

import argparse
from math import log

import numpy as np

from mcident import chain_core as cc
from mcident import corpus as cp
from mcident import identity as idn
from mcident import partition as pt
from mcident import sampling as sp
from mcident.iid_test import iid_sample_size, iid_test
from mcident.metrics import hellinger, min_cut_metric_ratio

# rounding approximation budget: the sweep cut's ratio should stay within
# C_ROUND * log d of the brute-force optimum at the 95th percentile
C_ROUND = 4.0


def tester_characteristics(seed, trials, c_iid_grid=(1.0, 2.0, 4.0, 8.0)):
    print("== iid tester: false rates at delta=0.1, eps=0.25, far gap = eps")
    rng = np.random.default_rng(seed)
    for c_iid in c_iid_grid:
        rows = []
        for K in (4, 16, 50):
            pv = np.ones(K) / K
            m = iid_sample_size(K, 0.25, 0.1, c_iid)
            fr = sum(
                iid_test(rng.choice(K, size=m, p=pv), pv, 0.25, 0.1, c_iid=c_iid).decision
                for t in range(trials)
            )
            sign = np.where(np.arange(K) % 2 == 0, 1.0, -1.0)
            lo, hi = 0.0, 1.0
            for _ in range(60):
                mid = (lo + hi) / 2
                w = pv * (1 + sign * mid)
                if hellinger(w / w.sum(), pv) < 0.25:
                    lo = mid
                else:
                    hi = mid
            far = pv * (1 + sign * hi)
            far /= far.sum()
            fa = sum(
                1 - iid_test(rng.choice(K, size=m, p=far), pv, 0.25, 0.1, c_iid=c_iid).decision
                for t in range(trials)
            )
            rows.append(f"K={K} m={m} FR={fr/trials:.3f} FA={fa/trials:.3f}")
        print(f"  c_iid={c_iid:>4}: " + "  ".join(rows))


def visit_event(seed, trials, c_vis_grid=(10.0, 20.0, 40.0)):
    print("== visit-count event frequency at delta=0.1 (target >= 0.9)")
    for c_vis in c_vis_grid:
        hits = total = 0
        for k in range(20):
            r = np.random.default_rng(seed + k)
            P = cp.random_reversible(int(r.integers(3, 9)), r)
            pi = cc.stationary_distribution(P).entries
            m = sp.required_visits(float(pi.min()), cc.spectral_gap(P), 0.1, c_vis)
            for t in range(max(trials // 20, 3)):
                traj = sp.simulate(P, pi, m, seed=seed + 97 * k + t)
                counts = np.bincount(traj.states, minlength=P.d)
                hits += bool(np.all(counts >= pi * m / 2.0))
                total += 1
        print(f"  c_vis={c_vis:>4}: event frequency {hits/total:.3f} over {total} runs")


def end_to_end(seed, trials, c_len_grid=(1.0, 2.0, 4.0)):
    print("== single-trajectory tester rates at eps=0.3 (target >= 0.6 both)")
    rng = np.random.default_rng(seed)
    target = np.array([0.06, 0.14, 0.35, 0.45])
    far, ref = cp.far_reversible_pair(4, rng, 0.3, 0.0, target=target)
    alpha = 0.3**2 / (2 * np.sqrt(2))
    pibar = cc.stationary_distribution(ref).entries
    n = max(trials // 4, 10)
    for c_len in c_len_grid:
        m = idn.trajectory_budget(4, float(pibar.min()), 0.3, c_len)
        acc = rej = 0
        for t in range(n):
            lz = cc.lazy_version(ref, alpha)
            traj = sp.simulate(lz, cc.stationary_distribution(lz), m, seed=seed + t)
            cfg = idn.TestConfig(eps=0.3, seed=seed + 1000 + t)
            acc += 1 - idn.identity_test(ref, traj, cfg).verdict
            lzf = cc.lazy_version(far, alpha)
            trajf = sp.simulate(lzf, cc.stationary_distribution(lzf), m, seed=seed + 2000 + t)
            cfg = idn.TestConfig(eps=0.3, seed=seed + 3000 + t)
            rej += idn.identity_test(ref, trajf, cfg).verdict
        print(f"  c_len={c_len:>4}: budget={m} accept {acc}/{n} reject {rej}/{n}")


def rounding_factor(seed, trials):
    print("== sweep-cut approximation factor (per log d)")
    factors = []
    for k in range(trials):
        r = np.random.default_rng(seed + k)
        d = int(r.integers(4, 11))
        P = cp.random_reversible(d, r)
        I = tuple(range(d))
        S = pt.find_comp(P, pt.solve_spccc_lp(P, I), seed=k)
        factors.append(pt.cut_metric_ratio(P, S, I) / min_cut_metric_ratio(P, I) / log(d))
    print(f"  mean {np.mean(factors):.3f}  p95 {np.quantile(factors, 0.95):.3f}  "
          f"max {np.max(factors):.3f}  (budget C_ROUND={C_ROUND})")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--trials", type=int, default=100)
    args = ap.parse_args()
    tester_characteristics(args.seed, args.trials)
    visit_event(args.seed, args.trials)
    end_to_end(args.seed, args.trials)
    rounding_factor(args.seed, min(args.trials, 100))


if __name__ == "__main__":
    main()
