"""Identity tester for iid samples against a known finite distribution.

Contract: given m >= iid_sample_size(K, eps, delta) iid samples from p over
the reference's alphabet of integer codes 0..K-1, the verdict is 0 when p
equals the reference and 1 when the Hellinger distance is at least eps, each
with probability at least 1 - delta.

The statistic is a centered collision (chi-squared family) statistic over
the histogram, with the rejection threshold calibrated by parametric
bootstrap from the reference at the same sample size. The statistic is a
function of the histogram alone: samples are split into two half-size
sub-multisets cell by cell (odd counts alternate sides), the per-half
statistics averaged. That keeps the verdict invariant under any reordering
of the samples while decorrelating the two averaged halves' fluctuations.
Everything is deterministic given (samples, seed).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, isfinite, log, sqrt

import numpy as np

from ._rng import require_seed
from .errors import AlphabetMismatch, BadArgs, TooFewSamples

# Histogram cells the bootstrap draws and reduces at once: 2**17 cells keep
# every acceptance-corpus bootstrap (at most 1600 x 65) in one block, and a
# larger one in blocks of about 1 MB per int64 array.
BOOTSTRAP_BLOCK_CELLS = 1 << 17

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
        raise BadArgs(f"support={support}")
    if not (0.0 < eps < 1.0) or not (0.0 < delta < 1.0):
        raise BadArgs(f"eps={eps}, delta={delta}")
    size = c_iid * sqrt(support) * log(1.0 / delta) / (eps * eps)
    if not isfinite(size):
        raise BadArgs(f"sample size {size} is not finite (c_iid={c_iid})")
    return int(ceil(size))


def _split_halves(hist: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic per-cell half split of each row of the (B, K) hist;
    odd counts alternate sides."""
    base = hist // 2
    odd = hist % 2
    cum = np.cumsum(odd, axis=1)
    extra = odd * (cum % 2 == 1)
    a = base + extra
    return a, hist - a


def _collision_stat(counts: np.ndarray, p: np.ndarray, denom: np.ndarray) -> np.ndarray:
    """Sum_i ((N_i - m p_i)^2 - N_i) / denom_i, rows are datasets."""
    c = counts.astype(float)
    m = c.sum(axis=1, keepdims=True)
    z = ((c - m * p[None, :]) ** 2 - c) / denom[None, :]
    return z.sum(axis=1)


def _statistic(hist: np.ndarray, p: np.ndarray, denom: np.ndarray) -> np.ndarray:
    a, b = _split_halves(hist)
    return (_collision_stat(a, p, denom) + _collision_stat(b, p, denom)) / 2.0


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
    one float64 array raises BadArgs. The null histograms are drawn and
    reduced a block of rows at a time; consecutive draws from one generator
    give the same rows as a single draw, so the threshold does not depend on
    the block.
    """
    p = np.asarray(pbar, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise AlphabetMismatch("reference must be a nonempty 1-D probability array")
    if p.min() < -1e-12 or abs(p.sum() - 1.0) > 1e-8:
        raise AlphabetMismatch(f"reference probabilities sum to {p.sum()!r}")
    p = np.clip(p, 0.0, None)
    p = p / p.sum()
    K = len(p)
    if not (0.0 < eps < 1.0) or not (0.0 < delta < 1.0):
        raise BadArgs(f"eps={eps}, delta={delta}")
    # the B null statistics must fit one float64 array
    if 20.0 / delta > np.iinfo(np.intp).max // 8:
        raise BadArgs(f"delta={delta} asks for {20.0 / delta:.3g} bootstrap draws")
    B = ceil(20.0 / delta)
    seed = require_seed(seed)

    codes = np.asarray(samples, dtype=np.int64)
    m = len(codes)
    needed = iid_sample_size(K, eps, delta, c_iid)
    if m < needed:
        raise TooFewSamples(f"{m} samples, need {needed}")

    in_range = (codes >= 0) & (codes < K)
    hist = np.bincount(codes[in_range], minlength=K)
    impossible = not in_range.all() or bool(np.any(hist[p == 0.0] > 0))

    denom = np.maximum(p, 1.0 / K)
    rng = np.random.default_rng(seed)
    rows = max(1, BOOTSTRAP_BLOCK_CELLS // K)
    null_stats = np.empty(B)
    for start in range(0, B, rows):
        block = rng.multinomial(m, p, size=min(rows, B - start))
        null_stats[start : start + len(block)] = _statistic(block, p, denom)
    threshold = float(np.quantile(null_stats, 1.0 - delta / 2.0, method="higher"))

    if impossible:
        statistic = float("inf")
    else:
        statistic = float(_statistic(hist[None, :], p, denom)[0])
    return TestVerdict(
        decision=int(statistic > threshold),
        statistic=statistic,
        threshold=threshold,
        sample_size=m,
    )
