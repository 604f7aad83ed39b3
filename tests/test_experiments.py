from fractions import Fraction
from itertools import product

import numpy as np
import pytest

import spanlab as sl
from spanlab import BipartiteOneOutInstance, CapExceededError
from spanlab.experiments import _vector_from_picks, sample_choices
from spanlab.stats import percentile_interval

from helpers import reference_bootstrap_slopes


def make_instance(a_degrees, offsets=None):
    """Synthetic instance: A-vertices 0..k-1, B-vertices k..k+max-1."""
    k = len(a_degrees)
    b_count = max(a_degrees)
    b = tuple(range(k, k + b_count))
    choices = {v: tuple(b[: a_degrees[v]]) for v in range(k)}
    offs = {v: 0 for v in range(k + b_count)}
    if offsets:
        offs.update(offsets)
    return BipartiteOneOutInstance(tuple(range(k)), b, choices, offs)


def test_instance_validation():
    with pytest.raises(ValueError):
        BipartiteOneOutInstance((0,), (0, 1), {0: (1,)}, {0: 0, 1: 0})  # overlap
    with pytest.raises(ValueError):
        BipartiteOneOutInstance((0,), (1,), {0: ()}, {0: 0, 1: 0})  # degree 0
    with pytest.raises(ValueError):
        BipartiteOneOutInstance((0,), (1,), {0: (2,)}, {0: 0, 1: 0})  # stray


def test_instance_properties():
    inst = make_instance([2, 3, 3])
    assert inst.n == 6
    assert inst.min_a_degree == 2
    assert inst.outcome_count() == 18
    assert inst.a_fraction == pytest.approx(0.5)


def test_instance_from_selection():
    g = sl.complete_bipartite(3, 100)
    edges = [(0, u) for u in range(3, 103)] + [(1, 3), (2, 4)]
    t = sl.SpanningTree.from_edges(g, edges)
    r = frozenset({5, 6, 7, 1})
    outcome = sl.select_leaves(g, t, r)
    inst = sl.instance_from_selection(g, t, outcome.selection)
    assert inst.a_vertices == (5, 6, 7)
    assert set(inst.b_vertices) == set(range(103)) - {5, 6, 7}
    # Offsets are core-tree degrees: hub 0 keeps 100 - 3 selected leaves.
    assert inst.offsets[0] == 97
    assert inst.offsets[5] == 0
    # A reconfiguration's histogram digest matches a model draw digest
    # built from the same parent choices.
    seed = 909
    moved = sl.reconfigure(g, t, outcome.selection, sl.stream(seed), validate=False)
    direct = sl.histogram_key(moved.degrees)
    picks = sample_choices(inst, sl.stream(seed))
    from spanlab.experiments import _vector_from_picks

    assert _vector_from_picks(inst, picks) == direct


def test_sample_choices_marginals():
    inst = make_instance([3, 5, 2])
    rng = sl.stream(55)
    trials = 100000
    counts = [{u: 0 for u in inst.choices[v]} for v in inst.a_vertices]
    for _ in range(trials):
        picks = sample_choices(inst, rng)
        for i, u in enumerate(picks):
            counts[i][u] += 1
    for i, v in enumerate(inst.a_vertices):
        deg = len(inst.choices[v])
        sigma = (trials * (1 / deg) * (1 - 1 / deg)) ** 0.5
        for u, c in counts[i].items():
            assert abs(c - trials / deg) < 3 * sigma


def test_forced_instance_is_deterministic():
    inst = make_instance([1, 1, 1])
    vectors = {sl.sample_degree_vector(inst, sl.stream(i)) for i in range(20)}
    assert len(vectors) == 1
    dist = sl.exact_vector_distribution(inst)
    assert dist == {next(iter(vectors)): Fraction(1)}
    report, _ = sl.estimate_max_point_mass(inst, 200, seed=5)
    assert report.collision == 1.0 and report.max_mass_bound == 1.0


def test_single_vertex_distinct_offsets_collision_one_over_d():
    # One A-vertex of degree d; offsets make every landing distinguishable.
    d = 4
    inst = make_instance([d], offsets={1 + i: 10 * i for i in range(d)})
    dist = sl.exact_vector_distribution(inst)
    assert len(dist) == d
    assert all(p == Fraction(1, d) for p in dist.values())
    exact = sum(p * p for p in dist.values())
    assert exact == Fraction(1, d)
    report, _ = sl.estimate_max_point_mass(inst, 20000, seed=6)
    assert abs(report.collision - 0.25) < 0.02
    lo, hi = report.collision_ci99
    assert lo <= float(exact) <= hi


def test_k22_exhaustive_vs_empirical():
    # Two A-vertices, each choosing between the same two B-vertices.
    inst = BipartiteOneOutInstance(
        (0, 1), (2, 3), {0: (2, 3), 1: (2, 3)}, {v: 0 for v in range(4)}
    )
    dist = sl.exact_vector_distribution(inst)
    # Split picks give (1,1); doubled picks give (0 and 2): two vector
    # kinds with masses 1/2 each.
    assert sorted(dist.values()) == [Fraction(1, 2), Fraction(1, 2)]
    trials = 100000
    counts: dict[tuple, int] = {}
    rng = sl.stream(57)
    for _ in range(trials):
        key = sl.sample_degree_vector(inst, rng)
        counts[key] = counts.get(key, 0) + 1
    for key, prob in dist.items():
        expect = float(prob) * trials
        sigma = (trials * float(prob) * (1 - float(prob))) ** 0.5
        assert abs(counts[key] - expect) < 3 * sigma


def test_exact_distribution_cap():
    inst = make_instance([8] * 8)  # 8^8 = 2^24 outcomes
    with pytest.raises(CapExceededError):
        sl.exact_vector_distribution(inst, cap=2**20)


def test_exact_distribution_matches_product_enumeration():
    # Oracle: enumerate every choice tuple in the same depth-first order as
    # the walk and digest each with the sampler's own histogram code.
    rng = np.random.default_rng(67)
    for trial in range(40):
        k = int(rng.integers(0, 6))
        degs = [int(rng.integers(1, 5)) for _ in range(k)] or [1]
        offsets = {v: int(rng.integers(0, 3)) for v in range(len(degs) + max(degs))}
        inst = make_instance(degs, offsets)
        counts: dict[tuple, int] = {}
        for picks in product(*(inst.choices[v] for v in inst.a_vertices)):
            key = _vector_from_picks(inst, picks)
            counts[key] = counts.get(key, 0) + 1
        unit = Fraction(1, inst.outcome_count())
        expected = {key: c * unit for key, c in counts.items()}
        got = sl.exact_vector_distribution(inst)
        assert list(got.items()) == list(expected.items())


def test_exact_distribution_deep_instance():
    # 1500 single-choice A-vertices: one outcome, and no recursion limit.
    inst = make_instance([1] * 1500)
    # Every A-vertex lands on the one B-vertex, which ends at in-degree 1500.
    assert sl.exact_vector_distribution(inst) == {((1, 1500), (1500, 1)): Fraction(1)}


def test_estimator_within_its_ci_of_exact():
    rng = np.random.default_rng(61)
    for trial in range(3):
        degs = [int(rng.integers(2, 5)) for _ in range(6)]
        offsets = {i: int(rng.integers(0, 3)) for i in range(len(degs) + max(degs))}
        inst = make_instance(degs, offsets)
        exact = float(sum(p * p for p in sl.exact_vector_distribution(inst).values()))
        report, _ = sl.estimate_max_point_mass(inst, 30000, seed=700 + trial)
        lo, hi = report.collision_ci99
        assert lo <= exact <= hi


def test_pipeline_on_tree_graph_collides_always():
    g = sl.path_graph(6)  # unique spanning tree, no movable leaves
    report = sl.pipeline_collision(g, trials=100, seed=8)
    assert report.histograms.collision == 1.0
    assert report.codes.collision == 1.0


def test_pipeline_on_cycle_codes_collide():
    g = sl.cycle_graph(12)  # every spanning tree is a path
    report = sl.pipeline_collision(g, trials=150, seed=9)
    assert report.codes.collision == 1.0
    assert report.codes.max_mass_bound == 1.0


def test_pipeline_code_collisions_bounded_by_histograms():
    g = sl.complete_bipartite(3, 30)
    report = sl.pipeline_collision(g, trials=2000, seed=10)
    assert report.codes.colliding_pairs <= report.histograms.colliding_pairs
    assert report.trials == 2000
    assert sum(report.branch_counts.values()) == 2000


def test_pipeline_k3_100_histogram_collision_regression():
    # Regression baseline, not ground truth: the histogram collision on
    # K_{3,100} sits near 0.02 and must stay strictly below 0.5.
    report = sl.pipeline_collision(sl.complete_bipartite(3, 100), trials=10000, seed=12, jobs=2)
    assert report.histograms.collision < 0.5
    assert report.histograms.collision == pytest.approx(0.02, abs=0.015)


def test_pipeline_reports_are_reproducible_and_jobs_invariant():
    g = sl.complete_bipartite(3, 30)
    a = sl.pipeline_collision(g, trials=400, seed=11)
    b = sl.pipeline_collision(g, trials=400, seed=11)
    c = sl.pipeline_collision(g, trials=400, seed=11, jobs=2)
    for x in (b, c):
        assert x.histograms.collision == a.histograms.collision
        assert x.codes.collision == a.codes.collision
        assert x.branch_counts == a.branch_counts


def test_scaling_experiment_smoke():
    report = sl.scaling_experiment(3, (30, 60), trials=400, seed=12)
    assert [row.n for row in report.rows] == [30, 60]
    assert report.code_slope == pytest.approx(
        np.polyfit(
            np.log([30, 60]), np.log([r.codes.max_mass_bound for r in report.rows]), 1
        )[0]
    )
    with pytest.raises(ValueError):
        sl.scaling_experiment(3, (30, 6), trials=10, seed=1)
    with pytest.raises(ValueError):
        sl.scaling_experiment(3, (60, 30), trials=10, seed=1)


def test_scaling_slope_ci_matches_per_column_fits():
    # 4 trials per size: many bootstrap resamples see no collision and
    # sit on the floor, which the one-call fit must treat like the loop.
    for seed in range(3):
        report = sl.scaling_experiment(3, (50, 100, 200), trials=4, seed=seed)
        boots = np.vstack([r.codes.bootstrap for r in report.rows])
        assert (boots == 0).any()
        slopes = reference_bootstrap_slopes(report.sizes, boots, 1.0 / (4 * 3))
        assert report.code_slope_ci95 == percentile_interval(slopes, 0.95)


def test_multinomial_baseline_slope_matches_theory_loosely():
    report = sl.multinomial_baseline(3, (50, 100, 200, 400), trials=20000, seed=13)
    assert report.max_frequency_slope == pytest.approx(-1.0, abs=0.3)
    bounds = [r.max_mass_bound for r in report.rows]
    assert bounds == sorted(bounds, reverse=True)


def test_uniformity_experiment_cap():
    with pytest.raises(CapExceededError):
        sl.uniformity_experiment(sl.complete_graph(5), 100, seed=14, cap=75)


def test_uniformity_experiment_rows():
    report = sl.uniformity_experiment(sl.complete_graph(4), 4000, seed=15)
    names = [row.sampler for row in report.rows]
    assert names == ["wilson", "ab", "reject", "pipeline"]
    assert report.support == 16
    assert report.rejected(1e-3) == []
