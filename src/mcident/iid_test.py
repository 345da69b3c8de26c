"""Identity tester for iid samples against a known finite distribution.

Contract: given m >= iid_sample_size(K, eps, delta) iid samples from p over
the reference's alphabet of integer codes 0..K-1, the verdict is 0 when p
equals the reference and 1 when the Hellinger distance is at least eps, each
with probability at least 1 - delta.

The statistic is the centered chi-square-type statistic
Sum_i ((N_i - m p_i)^2 - N_i) / w_i of the histogram N of the m samples,
with w_i = max(p_i, 1/K) (the form of the Acharya-Daskalakis-Kamath 2015
tester, whose weights differ), and the rejection threshold is calibrated by
parametric bootstrap from the reference at the same sample size. It is a
function of the histogram, so the verdict does not depend on the order of
the samples. Everything is deterministic given (samples, seed).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, isfinite, log, sqrt

import numpy as np

from ._rng import require_seed
from .errors import ChainTestError

# Histogram cells the bootstrap draws and reduces at once: blocks of 2**15
# cells keep each int64 array at 256 KB, in L2. At the acceptance-corpus
# sizes (1200 x 37 and 1600 x 65) the tester took 9-11 % less time than with
# 2**17 cells, one 1600 x 65 block that spills L2 (medians of 40 alternated
# runs, 2-CPU host), and gave the same thresholds.
BOOTSTRAP_BLOCK_CELLS = 1 << 15

# Sample-size multiplier of iid_sample_size; 4 achieves the two-sided
# delta + 0.04 operating characteristic on alphabets of size 4-50 in
# scripts/calibrate_constants.py, which sweeps 1, 2, 4 and 8.
C_IID = 4.0


@dataclass(frozen=True)
class TestVerdict:
    """decision is 1 exactly when statistic > threshold."""

    decision: int
    statistic: float
    threshold: float
    sample_size: int


def iid_sample_size(support: int, eps: float, delta: float, c_iid: float = C_IID) -> int:
    """Samples required by the tester contract: c_iid sqrt(K) log(1/delta) / eps^2."""
    if support < 1:
        raise ChainTestError(f"support={support}")
    if not (0.0 < eps < 1.0) or not (0.0 < delta < 1.0):
        raise ChainTestError(f"eps={eps}, delta={delta}")
    eps_sq = eps * eps  # 0.0 below eps of about 1.5e-162
    size = c_iid * sqrt(support) * log(1.0 / delta) / eps_sq if eps_sq else np.inf
    if not isfinite(size):
        raise ChainTestError(f"sample size {size} is not finite (eps={eps}, c_iid={c_iid})")
    return int(ceil(size))


def _statistic(hist: np.ndarray, m: int, p: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Sum_i ((N_i - m p_i)^2 - N_i) / w_i of each row N of hist, a histogram
    of m samples; elementwise, so no value depends on the BLAS build."""
    counts = hist.astype(float)
    z = counts - m * p
    z *= z
    z -= counts
    z /= w
    return z.sum(axis=1)


def iid_test(
    samples,
    pbar,
    eps: float,
    delta: float,
    seed: int,
    c_iid: float = C_IID,
) -> TestVerdict:
    """Test iid samples against the reference distribution pbar.

    samples are integer codes and pbar is a 1-D array: pbar[k] is the
    reference probability of code k. Observing a code of reference
    probability zero (including codes outside [0, K)) is an impossible event
    under the null and forces decision 1. The bootstrap draws ceil(20/delta)
    null histograms from pbar at the same sample size and thresholds at the
    (1 - delta/2) quantile; a delta for which those statistics would not fit
    one float64 array raises ChainTestError. The null histograms are drawn
    over the cells of positive probability a block of rows at a time, of
    which only the statistics at or above the quantile's rank are kept;
    consecutive draws from one generator give the rows of a single draw.
    """
    p = np.asarray(pbar, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ChainTestError("reference must be a nonempty 1-D probability array")
    if p.min() < -1e-12 or abs(p.sum() - 1.0) > 1e-8:
        raise ChainTestError(f"reference probabilities sum to {p.sum()!r}")
    if not (0.0 < eps < 1.0) or not (0.0 < delta < 1.0):
        raise ChainTestError(f"eps={eps}, delta={delta}")
    # refuse more null statistics than one float64 array could hold
    if 20.0 / delta > np.iinfo(np.intp).max // 8:
        raise ChainTestError(f"delta={delta} asks for {20.0 / delta:.3g} bootstrap draws")
    seed = require_seed(seed)

    codes = np.asarray(samples, dtype=np.int64)
    in_range = (codes >= 0) & (codes < p.size)
    hist = np.bincount(codes[in_range], minlength=p.size)
    return _histogram_test(hist, len(codes), p, eps, delta, seed, c_iid, stray=not in_range.all())


def _histogram_test(hist: np.ndarray, m: int, pbar: np.ndarray, eps: float, delta: float,
                    seed: int, c_iid: float = C_IID, stray: bool = False) -> TestVerdict:
    """iid_test of m samples whose histogram over the codes of pbar is hist;
    stray says that some sample fell outside them. The arguments are valid:
    iid_test checks them."""
    p = np.clip(pbar, 0.0, None)
    p = p / p.sum()
    K = len(p)
    B = ceil(20.0 / delta)
    needed = iid_sample_size(K, eps, delta, c_iid)
    if m < needed:
        raise ChainTestError(f"{m} samples, need {needed}")

    impossible = stray or bool(np.any(hist[p == 0.0] > 0))

    # numpy's multinomial draws nothing for a zero cell but gives the last
    # cell the remainder: drawing these cells gives the full alphabet's rows
    drawn = p > 0.0
    drawn[-1] = True
    p, w = p[drawn], np.maximum(p[drawn], 1.0 / K)
    rng = np.random.default_rng(seed)
    rows = max(1, BOOTSTRAP_BLOCK_CELLS // len(p))
    # np.quantile(stats, q, method="higher") reads index ceil((B - 1) q) of
    # the sorted B: the least of the `keep` largest, all that blocks keep
    q = 1.0 - delta / 2.0
    keep = B - int(ceil((B - 1) * q))
    top = np.empty(0)
    for start in range(0, B, rows):
        block = rng.multinomial(m, p, size=min(rows, B - start))
        top = np.concatenate([top, _statistic(block, m, p, w)])
        if len(top) > keep:
            top = np.partition(top, -keep)[-keep:]
    threshold = float(top.min())

    if impossible:
        statistic = float("inf")
    else:
        statistic = float(_statistic(hist[None, drawn], m, p, w)[0])
    return TestVerdict(
        decision=int(statistic > threshold),
        statistic=statistic,
        threshold=threshold,
        sample_size=m,
    )
