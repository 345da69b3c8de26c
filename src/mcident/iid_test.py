"""Identity tester for iid samples against a known finite distribution.

Contract: given m >= iid_sample_size(K, eps, delta) iid samples from p over
the reference's alphabet of integer codes 0..K-1, the verdict is 0 when p
equals the reference and 1 when the Hellinger distance is at least eps, each
with probability at least 1 - delta.

The statistic is the centered chi-square-type statistic
Sum_i ((N_i - m p_i)^2 - N_i) / w_i of the histogram N of the m samples,
with w_i = max(p_i, 1/K) (the form of the Acharya-Daskalakis-Kamath 2015
tester, whose weights differ). The rejection threshold is a closed form in
the reference, m and delta (_threshold), so the tester draws nothing: its
verdict is a function of (histogram, reference, eps, delta).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, expm1, isfinite, log, log1p, sqrt

import numpy as np

from .errors import ChainTestError

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


def _statistic(hist: np.ndarray, m: int, p: np.ndarray, w: np.ndarray) -> float:
    """Sum_i ((N_i - m p_i)^2 - N_i) / w_i of the histogram N of m samples;
    elementwise, so no value depends on the BLAS build."""
    counts = hist.astype(float)
    z = counts - m * p
    z *= z
    z -= counts
    z /= w
    return float(z.sum())


def _threshold(p: np.ndarray, w: np.ndarray, m: int, delta: float) -> float:
    """(1 - delta/2) quantile of the statistic of m samples drawn from p.

    With N = m p + sqrt(m) Y and Y ~ N(0, diag p - p p^T), the statistic is a
    Gaussian quadratic form plus a linear term. Its cumulants are O(K) closed
    forms, because W^-1 (diag p - p p^T) is a diagonal minus a rank-one
    matrix; k1 is the exact null mean. A chi-square with nu degrees of
    freedom, scaled by c and shifted, matches k1, k2 and k3 (Pearson 1959),
    and its quantile is read through the Wilson-Hilferty cube root. Sums are
    elementwise, as in _statistic; zero cells add nothing.
    """
    from statistics import NormalDist  # not at import: it costs 3.5 ms

    m = float(m)  # m**3 of an int64 overflows from m = 2.1e6
    # a = p/w = min(1, K p) peaks on the likeliest cell j. Eliminating
    # Y_j = -Sum Y_i leaves diag(a) - g p^T over the other cells, g = a - a_j
    # <= 0, whose traces are sums of terms >= 0: nothing cancels, even for a
    # reference with nearly all its mass on one cell.
    j = int(np.argmax(p))
    a, b = p / w, 1.0 / w
    g = a - a[j]
    rest = np.delete(a, j)
    s, t2, t3 = (g * p).sum(), (a * g * p).sum(), (a * a * g * p).sum()
    e = b - (p * b).sum()
    v = p * e
    k1 = -m * (a * p).sum()
    k2 = 2.0 * m * m * ((rest * rest).sum() - 2.0 * t2 + s * s) + m * (v * e).sum()
    k3 = (8.0 * m**3 * ((rest**3).sum() - 3.0 * t3 + 3.0 * t2 * s - s**3)
          + 6.0 * m * m * (v * v / w).sum())
    z = -NormalDist().inv_cdf(delta / 2.0)
    # no skew left in floating point: the normal quantile (k2 = 0 too, and the
    # statistic the constant -m, when all mass is on one cell)
    if not k3 > 0.0:
        return float(k1 + z * sqrt(k2))
    # c nu = k2 / (2c) and h = 2 / (9 nu) = 4c^2 / (9 k2); expm1 and log1p
    # keep c nu ((1 - h + z sqrt(h))^3 - 1) accurate as nu grows large
    c = k3 / (4.0 * k2)
    h = 4.0 * c * c / (9.0 * k2)
    return float(k1 + k2 / (2.0 * c) * expm1(3.0 * log1p(z * sqrt(h) - h)))


def iid_test(samples, pbar, eps: float, delta: float, c_iid: float = C_IID) -> TestVerdict:
    """Test iid samples against the reference distribution pbar.

    samples are integer codes and pbar is a 1-D array: pbar[k] is the
    reference probability of code k. Observing a code of reference
    probability zero (including codes outside [0, K)) is an impossible event
    under the null and forces decision 1. Samples that are not integers
    (floats, booleans), a reference entry that is not finite, and a delta
    whose delta/2 is not a positive float raise ChainTestError.
    """
    p = np.asarray(pbar, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ChainTestError("reference must be a nonempty 1-D probability array")
    if not np.isfinite(p).all() or p.min() < -1e-12 or abs(p.sum() - 1.0) > 1e-8:
        raise ChainTestError(f"reference probabilities sum to {float(p.sum())!r}")
    if not (0.0 < eps < 1.0) or not (0.0 < delta < 1.0):
        raise ChainTestError(f"eps={eps}, delta={delta}")
    if delta / 2.0 == 0.0:
        raise ChainTestError(f"delta={delta}: delta/2 underflows to 0")

    codes = np.asarray(samples)
    if codes.dtype.kind not in "iu":
        raise ChainTestError(f"samples must be integers, got dtype {codes.dtype}")
    codes = codes.astype(np.int64, copy=False)
    in_range = (codes >= 0) & (codes < p.size)
    hist = np.bincount(codes[in_range], minlength=p.size)
    return _histogram_test(hist, len(codes), p, eps, delta, c_iid, stray=not in_range.all())


def _histogram_test(hist: np.ndarray, m: int, pbar: np.ndarray, eps: float, delta: float,
                    c_iid: float = C_IID, stray: bool = False) -> TestVerdict:
    """iid_test of m samples whose histogram over the codes of pbar is hist;
    stray says that some sample fell outside them. The arguments are valid:
    iid_test checks them."""
    p = np.clip(pbar, 0.0, None)
    p = p / p.sum()
    K = len(p)
    needed = iid_sample_size(K, eps, delta, c_iid)
    if m < needed:
        raise ChainTestError(f"{m} samples, need {needed}")

    w = np.maximum(p, 1.0 / K)
    threshold = _threshold(p, w, m, delta)
    impossible = stray or bool(np.any(hist[p == 0.0] > 0))
    statistic = float("inf") if impossible else _statistic(hist, m, p, w)
    return TestVerdict(int(statistic > threshold), statistic, threshold, m)
