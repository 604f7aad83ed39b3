"""Acceptance suite: one test per criterion, each printing a PASS line.

Trial counts and tolerances are pinned here, not configurable; seeds are
fixed so every run is the same run.  The Monte Carlo criteria use
significance 1e-3, so a correct implementation fails a given check with
probability about 0.1% per fresh seed; the committed seeds are ordinary
(first tried), just frozen.
"""

import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

import spanlab as sl
from spanlab import rng as rnglib
from spanlab.experiments import SAMPLERS
from spanlab.stats import chi_square_uniform

from helpers import (
    brute_isomorphic,
    edge_list_code,
    random_connected_graph,
    random_tree_edges,
    relabel_edges,
    tree_adjacency,
)

SEED = 20250810


def report(num, name, detail):
    print(f"criterion {num:02d} ({name}): PASS — {detail}")


# ---------------------------------------------------------------------------
# Shared generated graphs (expensive ones built once)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def small_random_graphs():
    rng = np.random.default_rng(SEED)
    graphs = []
    for _ in range(50):
        n = int(rng.integers(3, 8))
        graphs.append(random_connected_graph(n, rng, p=float(rng.uniform(0.35, 0.85))))
    return graphs


@pytest.fixture(scope="session")
def reversibility_families():
    return {
        "K_{3,60}": sl.complete_bipartite(3, 60),
        "K_{8,200}": sl.complete_bipartite(8, 200),
        "regular(8,200)": sl.random_regular(8, 200, sl.stream(SEED, 90)),
        "gnp(300,0.05,8)": sl.gnp_min_degree(300, 0.05, 8, sl.stream(SEED, 91)),
    }


@pytest.fixture(scope="session")
def desk_scale_families():
    return {
        "K_{16,2032}": sl.complete_bipartite(16, 2032),
        "regular(16,2048)": sl.random_regular(16, 2048, sl.stream(SEED, 92)),
    }


def test_c01_cayley_exactness():
    start = time.perf_counter()
    for n in range(3, 10):
        assert sl.count_spanning_trees(sl.complete_graph(n)) == n ** (n - 2)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, "Cayley exactness", f"n=3..9 exact, {elapsed:.2f}s")


def test_c02_enumeration_oracle(small_random_graphs):
    start = time.perf_counter()
    for g in small_random_graphs:
        count = sl.count_spanning_trees(g)
        trees = sl.enumerate_spanning_trees(g, cap=count)
        assert len(trees) == count
        assert len({t.edge_key() for t in trees}) == count
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(2, "enumeration oracle", f"50 graphs agree, {elapsed:.1f}s")


def test_c03_kostochka_upper_bound(small_random_graphs, reversibility_families):
    corpus = list(small_random_graphs)
    corpus += [sl.complete_graph(n) for n in range(2, 10)]
    corpus += [
        sl.cycle_graph(5),
        sl.cycle_graph(10),
        sl.path_graph(6),
        sl.complete_bipartite(2, 3),
        sl.complete_bipartite(2, 4),
        sl.complete_bipartite(3, 3),
        sl.complete_bipartite(3, 60),
        sl.random_regular(4, 50, sl.stream(SEED, 93)),
        sl.gnp_min_degree(40, 0.2, 3, sl.stream(SEED, 94)),
    ]
    corpus += list(reversibility_families.values())
    violations = [
        g for g in corpus
        if not sl.kostochka_upper_bound_holds(g, sl.count_spanning_trees(g))
    ]
    assert violations == []
    report(3, "degree-product bound", f"{len(corpus)} graphs, zero violations")


def test_c04_one_out_digraph_census():
    start = time.perf_counter()
    diamond = sl.build_graph([(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)], 4)
    graphs = [
        sl.path_graph(4),
        sl.path_graph(6),
        sl.cycle_graph(5),
        diamond,
        sl.complete_graph(4),
        sl.complete_bipartite(2, 3),
        sl.complete_bipartite(2, 4),
        sl.complete_bipartite(3, 3),
        sl.cycle_graph(10),
        sl.complete_bipartite(3, 6),
    ]
    total_digraphs = 0
    for g in graphs:
        dprod = sl.degree_product(g)
        assert dprod <= 10**6
        total_digraphs += dprod
        census = sl.one_out_census(g)
        assert all(count == g.n - 1 for count in census.values())
        assert len(census) == sl.count_spanning_trees(g)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(
        4,
        "one-out census",
        f"10 graphs, {total_digraphs} digraphs swept, n-1 everywhere, {elapsed:.1f}s",
    )


def test_c05_sampler_uniformity():
    start = time.perf_counter()
    cases = [
        ("K4", sl.complete_graph(4), 16),
        ("C5", sl.cycle_graph(5), 5),
        ("K_{2,3}", sl.complete_bipartite(2, 3), 12),
    ]
    pvalues = []
    for label, g, expected_support in cases:
        support = len(sl.enumerate_spanning_trees(g, cap=75))
        assert support == expected_support
        # The samplers' rows of uniformity_experiment, from the same streams;
        # the pipeline's row is c09's.
        rows = []
        for idx, (name, draw) in enumerate(SAMPLERS.items()):
            rng = sl.stream(SEED, rnglib.TREE, idx)
            counts = Counter(draw(g, rng).edge_key() for _ in range(100_000))
            rows.append((name, chi_square_uniform(counts, support)[1]))
        assert all(p >= 1e-3 for _, p in rows), (label, rows)
        pvalues += [round(p, 3) for _, p in rows]
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(5, "sampler uniformity", f"9 tests, p-values {pvalues}, {elapsed:.1f}s")


def test_c06_exact_leaf_expectation_bound():
    graphs = [sl.complete_graph(n) for n in (4, 5, 6, 7, 8)]
    graphs += [
        sl.complete_bipartite(a, b)
        for a, b in ((2, 3), (2, 8), (3, 5), (4, 4), (3, 40))
    ]
    graphs += [
        sl.random_regular(3, 16, sl.stream(SEED, 95)),
        sl.random_regular(4, 21, sl.stream(SEED, 96)),
        sl.random_regular(8, 40, sl.stream(SEED, 97)),
        sl.cycle_graph(6),
        sl.cycle_graph(17),
    ]
    graphs += [
        sl.gnp_min_degree(24, 0.3, 2, sl.stream(SEED, 98 + i)) for i in range(5)
    ]
    assert len(graphs) == 20
    for g in graphs:
        assert g.min_degree() >= 2
        total = sum(
            (sl.one_out_leaf_probability(g, v) for v in range(g.n)), Fraction(0)
        )
        assert 4 * total >= g.n  # exact rational comparison
    report(6, "leaf expectation bound", "20 graphs, exact sums all >= n/4")


def test_c07_leaf_count_desk_scale():
    g = sl.complete_graph(100)
    rep = sl.leaf_stats(g, trials=1000, sampler="wilson", rng=sl.stream(SEED, 7))
    assert rep.min_leaves > 100 / 8
    fraction = rep.mean_leaves / 100
    lo, hi = 1 / np.e - 0.05, 1 / np.e + 0.05
    assert lo <= fraction <= hi
    report(
        7,
        "leaf counts on K_100",
        f"min={rep.min_leaves} (>12.5), mean fraction={fraction:.4f} in [{lo:.4f},{hi:.4f}]",
    )


def test_c08_reversibility(reversibility_families):
    total = 0
    for idx, (label, g) in enumerate(reversibility_families.items()):
        for pair in range(25):
            tree = sl.sample_wilson(g, sl.stream(SEED, 80, idx, pair))
            subset = sl.sample_vertex_subset(g.n, sl.stream(SEED, 81, idx, pair))
            audit = sl.audit_reversibility(
                g, tree, subset, trials=100, rng=sl.stream(SEED, 82, idx, pair)
            )
            assert audit.ok, (label, audit.violations[0])
            total += audit.trials
    assert total == 10_000
    report(8, "reversibility", f"{total} audited trials across 4 families, zero violations")


def test_c09_uniformity_preserved_through_reconfiguration():
    pvals = {}
    for label, g, support in (
        ("K4", sl.complete_graph(4), 16),
        ("K_{2,3}", sl.complete_bipartite(2, 3), 12),
    ):
        trees = sl.enumerate_spanning_trees(g, cap=75)
        assert len(trees) == support
        counts: dict[tuple, int] = {}
        for t in range(100_000):
            redone, _ = sl.pipeline_reconfigured_tree(g, SEED + 9, t)
            key = redone.edge_key()
            counts[key] = counts.get(key, 0) + 1
        stat, pvalue = chi_square_uniform(counts, support)
        assert pvalue >= 1e-3, (label, stat, pvalue)
        pvals[label] = round(pvalue, 3)
    report(9, "uniformity after reconfiguration", f"p-values {pvals}")


def test_c10_linear_selection_size(desk_scale_families):
    n = 2048
    smallest = {}
    for idx, (label, g) in enumerate(desk_scale_families.items()):
        assert g.n == n
        sizes = []
        for t in range(500):
            tree = sl.sample_wilson(g, sl.stream(SEED, 60, idx, t))
            subset = sl.sample_vertex_subset(g.n, sl.stream(SEED, 61, idx, t))
            outcome = sl.select_leaves(g, tree, subset)
            sizes.append(len(outcome.selection))
        assert all(256 * s >= n for s in sizes), (label, min(sizes))
        smallest[label] = min(sizes)
    report(10, "linear selection size", f"500 trials/family, min sizes {smallest} (need >= 8)")


def test_c11_collision_estimator_exactness():
    from test_experiments import make_instance

    instances = []
    rng = np.random.default_rng(SEED + 11)
    for _ in range(2):
        degs = [int(rng.integers(2, 5)) for _ in range(7)]
        offsets = {i: int(rng.integers(0, 3)) for i in range(len(degs) + max(degs))}
        instances.append(make_instance(degs, offsets))
    instances.append(make_instance([4] * 10))  # exactly 2^20 outcomes
    # One instance straight from a pipeline selection on K_{3,30}.
    g = sl.complete_bipartite(3, 30)
    for t in range(100):
        tree = sl.sample_wilson(g, sl.stream(SEED, 62, t))
        subset = sl.sample_vertex_subset(g.n, sl.stream(SEED, 63, t))
        outcome = sl.select_leaves(g, tree, subset)
        k = len(outcome.selection)
        if 1 <= k <= 12:  # 3^12 outcomes stay under 2^20
            instances.append(sl.instance_from_selection(g, tree, outcome.selection))
            break
    assert len(instances) == 4
    details = []
    for i, inst in enumerate(instances):
        assert inst.outcome_count() <= 2**20
        exact = float(
            sum(p * p for p in sl.exact_vector_distribution(inst).values())
        )
        estimate, _ = sl.estimate_max_point_mass(inst, trials=30_000, seed=SEED + 100 + i)
        lo, hi = estimate.collision_ci99
        assert lo <= exact <= hi, (i, exact, estimate.collision, (lo, hi))
        details.append(f"{exact:.4f} in [{lo:.4f},{hi:.4f}]")
    report(11, "collision estimator exactness", "; ".join(details))


@pytest.mark.slow
def test_c12_anticoncentration_scaling():
    sizes = (50, 100, 200, 400)
    scaling = sl.scaling_experiment(3, sizes, trials=100_000, seed=SEED + 12, jobs=2)
    baseline = sl.multinomial_baseline(3, sizes, trials=100_000, seed=SEED + 12)
    code_bounds = [row.codes.max_mass_bound for row in scaling.rows]
    hist_bounds = [row.histograms.max_mass_bound for row in scaling.rows]
    # Hard gates: strict monotone decay and negative fitted slope, plus the
    # independent baseline reproducing its known exponent.  The measured
    # slope against the -0.5 landmark is reported: sqrt(sum p^2) for this
    # family sits exactly on that landmark, so it is not a robust gate.
    assert code_bounds == sorted(code_bounds, reverse=True)
    assert hist_bounds == sorted(hist_bounds, reverse=True)
    assert len(set(code_bounds)) == len(code_bounds)
    assert scaling.code_slope < 0.0
    assert scaling.histogram_slope < 0.0
    assert abs(baseline.max_frequency_slope - (-1.0)) <= 0.25
    report(
        12,
        "anticoncentration scaling (exploratory)",
        f"code bounds {['%.4f' % b for b in code_bounds]} strictly decreasing; "
        f"code slope {scaling.code_slope:.3f} (vs -0.5 landmark: "
        f"{'<=' if scaling.code_slope <= -0.5 else '>'}), "
        f"baseline max-frequency slope {baseline.max_frequency_slope:.3f} within +/-0.25 of -1",
    )


def test_c13_canonicalization():
    trees = sl.enumerate_spanning_trees(sl.complete_graph(4), cap=100)
    codes = {sl.code_from_neighbors(tree_adjacency(t)) for t in trees}
    assert len(trees) == 16 and len(codes) == 2
    rng = np.random.default_rng(SEED + 13)
    mismatches = 0
    iso_pairs = 0
    for trial in range(1000):
        n = int(rng.integers(2, 9))
        a = random_tree_edges(n, rng)
        if trial % 2:
            b = relabel_edges(a, list(rng.permutation(n)))
        else:
            b = random_tree_edges(n, rng)
        same = edge_list_code(a, n) == edge_list_code(b, n)
        iso = brute_isomorphic(a, b, n)
        mismatches += same != iso
        iso_pairs += iso
    assert mismatches == 0
    assert iso_pairs >= 500
    report(
        13,
        "canonicalization",
        f"K4 -> 2 shapes; 1000 pairs ({iso_pairs} isomorphic), zero mismatches",
    )
