import dataclasses
from fractions import Fraction
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest

import spanlab as sl
from spanlab import HIGH_BRANCH, LOW_BRANCH, BipartiteOneOutInstance, CapExceededError, SpanningTree
from spanlab import experiments
from spanlab.cli import main
from spanlab.experiments import _pipeline_chunk, _vector_from_picks, sample_choices
from spanlab.graphs import GraphSpec, generate
from spanlab.stats import percentile_interval

from helpers import (
    eager_pipeline_collision,
    eager_scaling_reports,
    reference_bootstrap_slopes,
    reference_parent_code,
    reference_trial,
)


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
    moved = sl.reconfigure(g, t, outcome.selection, sl.stream(seed))
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


def product_law(inst):
    """Oracle: every choice tuple, digested with the sampler's own histogram code."""
    counts: dict[tuple, int] = {}
    for picks in product(*(inst.choices[v] for v in inst.a_vertices)):
        key = _vector_from_picks(inst, picks)
        counts[key] = counts.get(key, 0) + 1
    unit = Fraction(1, inst.outcome_count())
    return {key: c * unit for key, c in counts.items()}


def test_exact_distribution_matches_product_enumeration():
    rng = np.random.default_rng(67)
    for trial in range(40):
        k = int(rng.integers(0, 6))
        degs = [int(rng.integers(1, 5)) for _ in range(k)] or [1]
        offsets = {v: int(rng.integers(0, 3)) for v in range(len(degs) + max(degs))}
        inst = make_instance(degs, offsets)
        expected = product_law(inst)
        got = sl.exact_vector_distribution(inst)
        assert got == expected and list(got) == sorted(got)


def test_exact_distribution_on_arbitrary_choice_subsets():
    # Choice lists in any order, some with a repeated vertex: B-vertices
    # close at different steps, and some no A-vertex can choose.
    rng = np.random.default_rng(71)
    for trial in range(60):
        k, m = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        b = tuple(range(k, k + m))
        choices = {
            v: tuple(int(u) for u in rng.choice(b, int(rng.integers(1, m + 1)), trial % 4 == 0))
            for v in range(k)
        }
        offsets = {v: int(rng.integers(0, 3)) for v in range(k + m)}
        inst = BipartiteOneOutInstance(tuple(range(k)), b, choices, offsets)
        assert sl.exact_vector_distribution(inst) == product_law(inst), trial


@pytest.mark.parametrize(
    "spec,leaves,branch",
    [("bipartite:3,30", 7, LOW_BRANCH), ("regular:16,24", 3, HIGH_BRANCH)],
    ids=["low", "high"],
)
def test_exact_distribution_on_selections(spec, leaves, branch):
    # The first leaves of each selection keep the enumeration small.
    g = generate(GraphSpec.parse(spec), 11)
    for t in range(4):
        tree = sl.sample_wilson(g, sl.stream(11, 1, t))
        outcome = sl.select_leaves(g, tree, sl.sample_vertex_subset(g.n, sl.stream(11, 2, t)))
        assert outcome.branch == branch
        kept = dict(list(outcome.selection.items())[:leaves])
        inst = sl.instance_from_selection(g, tree, kept)
        assert sl.exact_vector_distribution(inst) == product_law(inst), t


def test_exact_distribution_without_a_vertices():
    # One outcome: every B-vertex keeps its offset.
    inst = BipartiteOneOutInstance((), (0, 1, 2), {}, {0: 4, 1: 0, 2: 4})
    law = {((0, 1), (4, 2)): Fraction(1)}
    assert sl.exact_vector_distribution(inst) == product_law(inst) == law


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


def test_codes_that_stop_refining_histograms_are_a_bug(monkeypatch, capsys):
    # A broken coder gives every coded tree one code, so trees of different
    # histograms collide as codes.  The guard raises, and the CLI lets the
    # bug surface instead of reporting a domain error (exit 1).
    monkeypatch.setattr(experiments, "code_from_parents", lambda *args: b"")
    g = generate(GraphSpec.parse("bipartite:3,12"), 0)
    with pytest.raises(AssertionError, match="codes no longer refine histograms"):
        sl.pipeline_collision(g, 24, seed=4)
    for argv in (
        ["pipeline", "--gen", "bipartite:3,12", "--trials", "24"],
        ["conjecture", "--d", "3", "--sizes", "10,15", "--trials", "24"],
    ):
        with pytest.raises(AssertionError, match="codes no longer refine histograms"):
            main(["experiment", *argv, "--seed", "4"])
        assert capsys.readouterr() == ("", "")


def test_pipeline_k3_100_histogram_collision_regression():
    # Regression baseline, not ground truth: the histogram collision on
    # K_{3,100} sits near 0.02 and must stay strictly below 0.5.
    report = sl.pipeline_collision(sl.complete_bipartite(3, 100), trials=10000, seed=12, jobs=2)
    assert report.histograms.collision < 0.5
    assert report.histograms.collision == pytest.approx(0.02, abs=0.015)


def assert_same_collision_report(a, b):
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if f.name == "bootstrap":
            assert np.array_equal(x, y)
        else:
            assert x == y, f.name


# The golden digests pin a few fixed seeds only; these graphs check whole
# trial rows at other seeds against trials rebuilt from the oracles.
# K_{3,47} and K_{4,60} take the low branch with no low-degree neighbour to
# bar, regular:16,256 the high branch, and the sparse gnp graph the low
# branch with low-degree neighbours in the subset.
ORACLE_GRAPHS = {
    "K3_47": lambda: sl.complete_bipartite(3, 47),
    "K4_60": lambda: sl.complete_bipartite(4, 60),
    "regular16_256": lambda: generate(GraphSpec.parse("regular:16,256"), 0),
    "gnp200": lambda: generate(GraphSpec.parse("gnp:200,0.03,2"), 0),
}


# In 12 trials the complete bipartite graphs repeat a histogram, so their
# chunks come back coded; the other two see 12 distinct histograms, so
# theirs come back held.
HELD_GRAPHS = {"regular16_256", "gnp200"}


@pytest.mark.parametrize("seed", [5, 77, 2**40 + 3])
@pytest.mark.parametrize("name", sorted(ORACLE_GRAPHS))
def test_pipeline_rows_match_reference_trials(name, seed):
    g = ORACLE_GRAPHS[name]()
    rows = _pipeline_chunk((g, seed, 0, 12))
    assert [type(shape) is bytes for _, shape, _ in rows] == [name not in HELD_GRAPHS] * 12
    coded = [
        (hist, shape if type(shape) is bytes else reference_parent_code(*shape), branch)
        for hist, shape, branch in rows
    ]
    assert coded == [reference_trial(g, seed, t) for t in range(12)]
    if name == "gnp200":
        # Some selected leaf lost a barred neighbour: the table's
        # filtering path ran, not only the whole-tuple one.
        filtered = 0
        for t in range(12):
            _, outcome = sl.pipeline_reconfigured_tree(g, seed, t)
            assert outcome.branch == LOW_BRANCH
            filtered += sum(c != g.neighbors[v] for v, c in outcome.selection.items())
        assert filtered


def test_pipeline_trials_build_no_tree_neighbour_lists():
    assert not hasattr(SpanningTree, "neighbors")
    for g in (sl.complete_bipartite(3, 47), sl.random_regular(16, 256, sl.stream(3))):
        rows = _pipeline_chunk((g, 9, 0, 10))
        assert len(rows) == 10
        # The tally codes every held tree when the digests are kept.
        report = sl.pipeline_collision(g, 10, seed=9, keep_digests=True)
        assert all(type(code) is bytes for _, code, _ in report.digests)
    # Here the tally codes held trees whose histograms repeat across chunks.
    sl.pipeline_collision(sl.complete_bipartite(3, 7), 16, seed=4)


@pytest.mark.parametrize("n, typecode", [(1 << 16, "H"), ((1 << 16) + 1, "i")])
def test_held_tree_codes_as_its_tree(n, typecode):
    # A heap-shaped tree: v hangs on (v - 1) // 2, rooted at 0.
    parent = [0] + [(v - 1) // 2 for v in range(1, n)]
    held = experiments._hold(SimpleNamespace(parent=parent, root=0))
    assert held[0].typecode == typecode and held[1] == 0
    assert experiments._code_held(held) == reference_parent_code(parent, 0)


def assert_same_pipeline_report(a, b):
    assert (a.seed, a.trials) == (b.seed, b.trials)
    assert_same_collision_report(a.histograms, b.histograms)
    assert_same_collision_report(a.codes, b.codes)
    assert a.branch_counts == b.branch_counts
    assert a.digests == b.digests


# (spec, trials, seed): the complete bipartite cases have trees coded in
# the tally (held in their chunks, histogram repeated in another chunk);
# the regular graph's trees all keep unique histograms and are never coded.
# 37 trials leave the last chunk partial: chunks of 5 at jobs=1 (two in the
# last), of 3 at jobs=2 (one in the last).
EAGER_CASES = [
    ("bipartite:3,7", 16, 4),
    ("bipartite:3,12", 24, 4),
    ("regular:16,256", 16, 0),
    ("bipartite:3,20", 37, 4),
]


@pytest.mark.parametrize("keep", [False, True])
@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("spec, trials, seed", EAGER_CASES)
def test_pipeline_collision_matches_eager_tally(spec, trials, seed, jobs, keep):
    g = generate(GraphSpec.parse(spec), 0)
    report = sl.pipeline_collision(g, trials, seed=seed, jobs=jobs, keep_digests=keep)
    assert_same_pipeline_report(report, eager_pipeline_collision(g, trials, seed, keep))


@pytest.mark.parametrize("spec, trials, seed, keep, calls, in_tally", [
    ("regular:16,256", 16, 0, False, 0, 0),
    ("regular:16,256", 16, 0, True, 16, 16),
    ("bipartite:3,7", 16, 4, False, 15, 15),
    ("bipartite:3,12", 24, 4, False, 21, 15),
])
def test_pipeline_codes_a_tree_only_when_its_histogram_can_collide(
    monkeypatch, spec, trials, seed, keep, calls, in_tally
):
    # Counts every code built, and the coded rows the chunks hand back; the
    # rest were built in the tally.
    g = generate(GraphSpec.parse(spec), 0)
    built, from_chunks = [], []
    code, chunk = experiments.code_from_parents, experiments._pipeline_chunk

    def counted_code(*args):
        built.append(1)
        return code(*args)

    def counted_chunk(args):
        rows = chunk(args)
        from_chunks.extend(1 for _, shape, _ in rows if type(shape) is bytes)
        return rows

    monkeypatch.setattr(experiments, "code_from_parents", counted_code)
    monkeypatch.setattr(experiments, "_pipeline_chunk", counted_chunk)
    sl.pipeline_collision(g, trials, seed=seed, jobs=1, keep_digests=keep)
    assert len(built) == calls
    assert len(built) - len(from_chunks) == in_tally


def test_pipeline_reports_are_reproducible_and_jobs_invariant():
    g = sl.complete_bipartite(3, 30)
    a = sl.pipeline_collision(g, trials=400, seed=11, keep_digests=True)
    b = sl.pipeline_collision(g, trials=400, seed=11, keep_digests=True)
    c = sl.pipeline_collision(g, trials=400, seed=11, jobs=2, keep_digests=True)
    assert len(a.digests) == 400
    for x in (b, c):
        assert_same_collision_report(x.histograms, a.histograms)
        assert_same_collision_report(x.codes, a.codes)
        assert x.branch_counts == a.branch_counts
        assert x.digests == a.digests


@pytest.mark.parametrize("seed", [3, 17])
def test_scaling_report_is_jobs_invariant(seed):
    # At jobs=2 the chunks run on the pool and the bootstraps in this
    # process while later sizes run; every array must match.
    one, two = (
        sl.scaling_experiment(3, (30, 60, 90), trials=300, seed=seed, jobs=jobs) for jobs in (1, 2)
    )
    assert [r.n for r in one.rows] == [r.n for r in two.rows] == [30, 60, 90]
    for a, b in zip(one.rows, two.rows):
        assert a.trials == b.trials
        assert_same_collision_report(a.histograms, b.histograms)
        assert_same_collision_report(a.codes, b.codes)
    assert one.code_slope == two.code_slope
    assert one.code_slope_ci95 == two.code_slope_ci95
    assert one.histogram_slope == two.histogram_slope


@pytest.mark.parametrize("jobs", [1, 2])
def test_scaling_rows_match_eager_tally(jobs):
    sizes, trials = (10, 15, 40), 24
    report = sl.scaling_experiment(3, sizes, trials=trials, seed=4, jobs=jobs)
    assert [row.n for row in report.rows] == list(sizes)
    for row, eager in zip(report.rows, eager_scaling_reports(3, sizes, trials, 4)):
        assert row.trials == trials
        assert_same_collision_report(row.histograms, eager.histograms)
        assert_same_collision_report(row.codes, eager.codes)


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
    assert report.rejected() == []
