"""Statistical helpers: goodness-of-fit, collision estimates, slope fits."""

from __future__ import annotations

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


# Multinomial resamples per bootstrap.  One at a time: a batched draw holds
# a resamples x classes array, about 190 MB at 23630 classes.
RESAMPLES = 1000


def bootstrap_collisions(counts, trials: int, rng) -> np.ndarray:
    """Bootstrap distribution of the pairwise-collision rate, ``RESAMPLES`` long.

    Collision counts are U-statistics with nonstandard variance, so CIs
    come from resampling rather than a normal approximation.
    """
    counts = np.asarray(list(counts), dtype=np.int64)
    if not counts.size:
        # No class to resample, so no pair collides (as in collision_rate).
        return np.zeros(RESAMPLES)
    probs = counts / trials
    out = np.empty(RESAMPLES)
    denom = trials * (trials - 1) / 2
    for b in range(RESAMPLES):
        re = rng.multinomial(trials, probs)
        out[b] = (re * (re - 1)).sum() / 2 / denom
    return out


def percentile_interval(values: np.ndarray, level: float) -> tuple[float, float]:
    lo = (1.0 - level) / 2 * 100
    hi = 100 - lo
    a, b = np.percentile(values, [lo, hi])
    return float(a), float(b)


def fit_loglog_slope(xs, ys) -> tuple[float, float] | tuple[None, None]:
    """(slope, intercept) of log(y) against log(x), or (None, None) when
    some y is 0 and the fit would take log(0)."""
    if min(ys) <= 0:
        return None, None
    lx = np.log(np.asarray(xs, dtype=float))
    ly = np.log(np.asarray(ys, dtype=float))
    slope, intercept = np.polyfit(lx, ly, 1)
    return float(slope), float(intercept)
