"""Statistical helpers: goodness-of-fit, collision estimates, slope fits."""

from __future__ import annotations

import math

import numpy as np


def chi_square_uniform(observed, support_size: int) -> tuple[float, float]:
    """Chi-square statistic and p-value of counts against the uniform law.

    ``observed`` maps outcomes to counts; outcomes never seen contribute
    zero cells, so the full support size must be supplied.
    """
    counts = list(observed.values()) if hasattr(observed, "values") else list(observed)
    if len(counts) > support_size:
        raise ValueError("observed more distinct outcomes than the support size")
    counts = counts + [0] * (support_size - len(counts))
    if support_size == 1:
        # No degrees of freedom: scipy's p-value would be NaN.
        return 0.0, 1.0
    # scipy.stats takes about a second to import; only this test needs it.
    from scipy import stats as sps

    stat, pvalue = sps.chisquare(counts)
    return float(stat), float(pvalue)


def collision_rate(counts, trials: int) -> float:
    """Fraction of sample pairs that collide: an unbiased estimate of sum(p^2)."""
    if trials < 2:
        raise ValueError("need at least two samples to count pairs")
    pairs = sum(c * (c - 1) for c in counts) // 2
    return pairs / (trials * (trials - 1) / 2)


# Multinomial resamples per bootstrap.
RESAMPLES = 1000
# Resamples are drawn in blocks of rows x classes cells, rows =
# max(1, BOOTSTRAP_CELLS // classes): 64 KB of int64 per block, plus
# temporaries of its size.  All resamples at once would hold a resamples x
# classes array, about 190 MB at 23630 classes; from 8193 classes on a
# block is one row.
BOOTSTRAP_CELLS = 8192


def bootstrap_collisions(counts, trials: int, rng) -> np.ndarray:
    """Bootstrap distribution of the pairwise-collision rate, ``RESAMPLES`` long.

    Collision counts are U-statistics with nonstandard variance, so CIs
    come from resampling rather than a normal approximation.  A block of
    rows is one ``multinomial`` call with ``size=rows``, which draws each
    row as a call without ``size`` would, in the same order: the values
    are those of drawing one resample at a time.
    """
    counts = np.asarray(list(counts), dtype=np.int64)
    if not counts.size:
        # No class to resample, so no pair collides (as in collision_rate).
        return np.zeros(RESAMPLES)
    probs = counts / trials
    rows = max(1, BOOTSTRAP_CELLS // counts.size)
    out = np.empty(RESAMPLES)
    denom = trials * (trials - 1) / 2
    for lo in range(0, RESAMPLES, rows):
        re = rng.multinomial(trials, probs, size=min(rows, RESAMPLES - lo))
        out[lo:lo + len(re)] = (re * (re - 1)).sum(axis=1) / 2 / denom
    return out


def percentile_interval(values: np.ndarray, level: float) -> tuple[float, float]:
    """The central ``level`` interval of ``values`` (1-D, finite, float64):
    bit for bit what ``np.percentile(values, [lo, hi])`` returns.

    ``np.percentile`` is not called because it reaches ``np.unique``,
    which imports numpy.ma (about 1 MB and 10 ms) into every command that
    reports an interval.  Its default ``linear`` rule (Hyndman and Fan's
    method 7) is reproduced step for step: the virtual index is
    (n - 1) * q, the order statistics around it are placed by the same
    ``partition`` call, and they are interpolated as numpy's ``_lerp``
    does, from the lower one below a weight of 0.5 and from the upper one
    from 0.5 on.
    """
    lo = (1.0 - level) / 2 * 100
    hi = 100 - lo
    arr = np.array(values, dtype=np.float64)
    last = arr.size - 1
    picks = []  # (virtual index, index below it, index above it)
    for q in (lo / 100, hi / 100):
        at = last * q
        # At or past the last index numpy reads the last value twice, as -1.
        i = math.floor(at) if at < last else -1
        picks.append((at, i, i + 1 if i >= 0 else -1))
    # numpy's kth list: the order of equal values, so the sign of a zero
    # that is read, comes out as in np.percentile.
    arr.partition(sorted({0, -1, *(k for _, i, j in picks for k in (i, j))}))
    lower, upper = (_lerp(float(arr[i]), float(arr[j]), at - i) for at, i, j in picks)
    return lower, upper


def _lerp(a: float, b: float, gamma: float) -> float:
    """numpy's ``_lerp``: from ``a`` below a weight of 0.5, from ``b`` on."""
    diff = b - a
    return a + diff * gamma if gamma < 0.5 else b - diff * (1 - gamma)


def fit_loglog_slope(xs, ys) -> tuple[float, float] | tuple[None, None]:
    """(slope, intercept) of log(y) against log(x), or (None, None) when
    some y is 0 and the fit would take log(0)."""
    if min(ys) <= 0:
        return None, None
    lx = np.log(np.asarray(xs, dtype=float))
    ly = np.log(np.asarray(ys, dtype=float))
    slope, intercept = np.polyfit(lx, ly, 1)
    return float(slope), float(intercept)
