import numpy as np
import pytest
from scipy import stats as sps

import spanlab.stats as st


def test_chi_square_uniform_pads_missing_cells():
    stat, p = st.chi_square_uniform({"a": 30, "b": 40}, support_size=3)
    ref_stat, ref_p = sps.chisquare([30, 40, 0])
    assert stat == pytest.approx(float(ref_stat))
    assert p == pytest.approx(float(ref_p))
    with pytest.raises(ValueError):
        st.chi_square_uniform({"a": 1, "b": 1}, support_size=1)
    # One outcome: no degrees of freedom, and a finite p-value of 1.
    assert st.chi_square_uniform({"a": 7}, support_size=1) == (0.0, 1.0)


def test_collision_rate_hand_values():
    # Counts 3 + 1: 3 colliding pairs out of C(4,2) = 6.
    assert st.collision_rate([3, 1], 4) == pytest.approx(0.5)
    assert st.collision_rate([1, 1, 1], 3) == 0.0
    assert st.collision_rate([5], 5) == 1.0
    with pytest.raises(ValueError):
        st.collision_rate([1], 1)


def test_bootstrap_collisions_centered():
    rng = np.random.default_rng(3)
    counts = [500, 300, 200]
    boots = st.bootstrap_collisions(counts, 1000, rng)
    point = st.collision_rate(counts, 1000)
    assert abs(float(boots.mean()) - point) < 0.02
    lo, hi = st.percentile_interval(boots, 0.95)
    assert lo < point < hi


def test_fit_loglog_slope_exact_power_law():
    xs = [10, 20, 40, 80]
    ys = [5.0 * x**-1.5 for x in xs]
    slope, intercept = st.fit_loglog_slope(xs, ys)
    assert slope == pytest.approx(-1.5)
    assert intercept == pytest.approx(np.log(5.0))
    # A zero y has no logarithm: no fit, and no numpy warning.
    assert st.fit_loglog_slope(xs, [1.0, 0.5, 0.0, 0.25]) == (None, None)
