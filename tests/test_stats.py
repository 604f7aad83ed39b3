import numpy as np
import pytest
from scipy import stats as sps

import spanlab.stats as st
from spanlab.rng import stream

from helpers import reference_bootstrap_collisions


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


def _tally(classes: int, trials: int) -> np.ndarray:
    """``classes`` positive counts summing to ``trials``, unevenly."""
    if not classes:
        return np.zeros(0, dtype=np.int64)
    extra = np.random.default_rng(classes).multinomial(
        trials - classes, np.arange(1, classes + 1) / (classes * (classes + 1) / 2)
    )
    return extra + 1


# Blocks of max(1, BOOTSTRAP_CELLS // classes) rows: a whole resample
# count in one block, blocks with a partial tail (100 classes: twelve
# blocks of 81 rows and one of 28), and one row a block from the cell
# budget on.
BOOTSTRAP_CASES = [
    (classes, trials)
    for classes in (0, 1, 2, 100, st.BOOTSTRAP_CELLS, st.BOOTSTRAP_CELLS + 1, 23630)
    for trials in (2, 100, 1000, 10**5)
    if classes <= trials
]


@pytest.mark.parametrize("classes, trials", BOOTSTRAP_CASES)
def test_bootstrap_blocks_are_the_row_loop(monkeypatch, classes, trials):
    if classes > st.BOOTSTRAP_CELLS // 2:
        # A block is one row here whatever the resample count, and 1000
        # rows of thousands of classes take seconds.
        monkeypatch.setattr(st, "RESAMPLES", 5)
    counts = _tally(classes, trials)
    fast, slow = stream(29, 4, classes), stream(29, 4, classes)
    got = st.bootstrap_collisions(counts, trials, fast)
    want = reference_bootstrap_collisions(counts, trials, slow)
    assert got.tobytes() == want.tobytes()
    assert fast.bit_generator.state == slow.bit_generator.state


def test_percentile_interval_is_np_percentile_bit_for_bit():
    rng = np.random.default_rng(25)
    for t in range(10_000):
        n = int(rng.integers(1, 3001))
        scale = 10.0 ** rng.uniform(-5, 5)
        kind = t % 5
        if kind == 0:
            values = rng.random(n) * scale
        elif kind == 1:  # many ties
            values = rng.integers(0, n // 10 + 1, n) * scale
        elif kind == 2:
            values = np.full(n, rng.normal() * scale)
        elif kind == 3:  # zeros of both signs, whose order partition decides
            values = rng.choice([-1.0, -0.0, 0.0, 1.0], n) * scale
        else:
            values = rng.normal(size=n) * scale
        for level in (0.5, 0.8, 0.95, 0.99):
            lo = (1.0 - level) / 2 * 100
            want = np.percentile(values, [lo, 100 - lo])
            got = np.array(st.percentile_interval(values, level))
            assert got.tobytes() == want.tobytes(), (t, n, level, got, want)


def test_fit_loglog_slope_exact_power_law():
    xs = [10, 20, 40, 80]
    ys = [5.0 * x**-1.5 for x in xs]
    slope, intercept = st.fit_loglog_slope(xs, ys)
    assert slope == pytest.approx(-1.5)
    assert intercept == pytest.approx(np.log(5.0))
    # A zero y has no logarithm: no fit, and no numpy warning.
    assert st.fit_loglog_slope(xs, [1.0, 0.5, 0.0, 0.25]) == (None, None)
