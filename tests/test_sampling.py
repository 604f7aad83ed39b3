from fractions import Fraction
from itertools import product

import numpy as np
import pytest

import spanlab as sl
from spanlab import AttemptsExhaustedError, CapExceededError
from spanlab import sampling
from spanlab.graphs import GraphSpec, generate
from spanlab.sampling import SAMPLERS, mutual_root

from helpers import _is_tree, random_connected_graph, reference_batches, reference_wilson

ALL_SAMPLERS = sorted(SAMPLERS)


@pytest.mark.parametrize("name", ALL_SAMPLERS)
def test_samplers_produce_spanning_trees(name):
    rng = np.random.default_rng(3)
    draw = SAMPLERS[name]
    for trial in range(10):
        g = random_connected_graph(int(rng.integers(2, 9)), rng)
        t = draw(g, sl.stream(100 + trial))
        assert t.is_spanning_tree()


@pytest.mark.parametrize("name", ALL_SAMPLERS)
def test_tree_input_returns_itself(name):
    g = sl.path_graph(6)
    t = SAMPLERS[name](g, sl.stream(8))
    assert t.edge_key() == tuple(g.edges())


@pytest.mark.parametrize(
    "spec, regular",
    [
        ("complete:1", True),  # d = 0: no walk is ever taken
        ("complete:2", True),
        ("regular:2,30", True),
        ("bipartite:4,4", True),
        ("complete:300", True),  # d > 256: indices past the small-int cache
        ("regular:16,2048", True),
        ("bipartite:4,5", False),
        ("gnp:60,0.2,3", False),
    ],
)
def test_wilson_matches_the_one_float_per_step_walk(spec, regular):
    g = generate(GraphSpec.parse(spec), 0)
    assert (g.common_degree is not None) == regular
    for t in range(20):
        tree = sl.sample_wilson(g, sl.stream(31, t))
        ref = reference_wilson(g, sl.stream(31, t))
        assert (tree.root, list(tree.parent)) == (ref.root, list(ref.parent))


@pytest.mark.parametrize(
    "name, spec",
    [
        ("wilson", "regular:3,200"),
        ("wilson", "bipartite:2,150"),
        ("ab", "regular:3,200"),
        ("ab", "bipartite:2,150"),
        ("reject", "complete:40"),
        ("reject", "bipartite:2,150"),
    ],
)
def test_samples_in_a_row_consume_whole_batches(name, spec, monkeypatch):
    # Each sample drops the unread rest of its last batch, so the next
    # sample's floats depend on the batch sizes drawn, not on how much of
    # a batch was converted.
    g = generate(GraphSpec.parse(spec), 0)
    rng = sl.stream(32)
    trees = [SAMPLERS[name](g, rng) for _ in range(20)]
    monkeypatch.setattr(sampling, "_batches", reference_batches)
    ref_rng = sl.stream(32)
    refs = [SAMPLERS[name](g, ref_rng) for _ in range(20)]
    assert [(t.root, list(t.parent)) for t in trees] == [
        (t.root, list(t.parent)) for t in refs
    ]
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_triangle_support():
    g = sl.cycle_graph(3)
    keys = {SAMPLERS["wilson"](g, sl.stream(seed)).edge_key() for seed in range(50)}
    expected = {((0, 1), (0, 2)), ((0, 1), (1, 2)), ((0, 2), (1, 2))}
    assert keys == expected


def test_support_examples():
    # One-out maps: v points at out[v].
    tri = sl.cycle_graph(3)
    assert mutual_root([1, 0, 0]) == 0
    assert sl.SpanningTree.from_parents(tri, [1, 0, 0], 0).edges() == [(0, 1), (0, 2)]
    assert mutual_root([1, 2, 0]) is None  # support is the whole cycle
    # A mutual pair plus a separate 3-cycle: n - 1 support edges, disconnected.
    assert mutual_root([1, 0, 4, 2, 3]) is None
    assert mutual_root([1, 0, 3, 2]) is None  # two mutual pairs


def test_digraph_oriented_toward_doubled_edge_is_tree():
    # Direct one tree edge both ways and every other edge toward it.
    tree_edges = [(0, 1), (1, 2), (2, 3), (2, 4)]
    g = sl.build_graph(tree_edges, 5)
    for u, v in tree_edges:
        out = [None] * 5
        out[u], out[v] = v, u
        # Orient remaining vertices along their unique path toward {u, v}.
        order = [u, v]
        seen = {u, v}
        for w in order:
            for x in g.neighbors[w]:
                if x not in seen:
                    out[x] = w
                    seen.add(x)
                    order.append(x)
        assert mutual_root(out) == min(u, v)
        assert sl.SpanningTree.from_parents(g, out, min(u, v)).edges() == tree_edges


@pytest.mark.parametrize(
    "g", [sl.complete_graph(5), sl.complete_bipartite(2, 3), sl.cycle_graph(6)], ids=repr
)
def test_mutual_root_accepts_exactly_the_tree_supports(g):
    for out in product(*g.neighbors):
        support = {(v, u) if v < u else (u, v) for v, u in enumerate(out)}
        r = mutual_root(out)
        assert (r is not None) == (len(support) == g.n - 1 and _is_tree(support, g.n))
        if r is not None:
            assert sl.SpanningTree.from_parents(g, list(out), r).edges() == sorted(support)


def test_one_out_census_small_graphs():
    # Path on 4 vertices: degree product 4, unique tree, n-1 = 3 digraphs.
    p4 = sl.path_graph(4)
    census = sl.one_out_census(p4)
    assert census == {tuple(p4.edges()): 3}
    # Triangle: 3 trees, 2 digraphs each, 6 of 8 digraphs accept.
    tri = sl.cycle_graph(3)
    census = sl.one_out_census(tri)
    assert len(census) == 3
    assert all(v == 2 for v in census.values())
    assert sum(census.values()) == 6


def test_one_out_census_matches_exact_count():
    for g in (sl.complete_graph(4), sl.complete_bipartite(2, 3)):
        census = sl.one_out_census(g)
        assert len(census) == sl.count_spanning_trees(g)
        assert all(v == g.n - 1 for v in census.values())


def test_one_out_single_vertex():
    g = sl.complete_graph(1)
    assert sl.one_out_census(g) == {(): 1}
    tree, attempts = sl.sample_rejection_one_out(g, sl.stream(0))
    assert attempts == 1
    assert tree.edges() == [] and tree.is_spanning_tree()


def test_one_out_census_cap():
    with pytest.raises(CapExceededError):
        sl.one_out_census(sl.complete_graph(5), cap=1000)  # 4^5 = 1024


def test_rejection_attempts_exhausted():
    g = sl.complete_bipartite(3, 3)
    with pytest.raises(AttemptsExhaustedError):
        # Acceptance rate on K_{3,3} is 81*5/729, so 1 attempt often fails;
        # seed 0 is one of the failing draws.
        sl.sample_rejection_one_out(g, sl.stream(0), max_attempts=1)


def test_leaf_probability_k2_and_kn():
    k2 = sl.complete_graph(2)
    assert sl.one_out_leaf_probability(k2, 0) == 0
    assert sl.one_out_leaf_probability(k2, 1) == 0
    for n in (3, 5, 8):
        kn = sl.complete_graph(n)
        expect = (1 - Fraction(1, n - 1)) ** (n - 1)
        assert all(sl.one_out_leaf_probability(kn, v) == expect for v in range(n))


def test_neighbour_degree_sums_total_n():
    rng = np.random.default_rng(9)
    for _ in range(5):
        g = random_connected_graph(int(rng.integers(3, 9)), rng)
        total = sum((sl.neighbour_degree_sum(g, v) for v in range(g.n)), Fraction(0))
        assert total == g.n


def test_exact_leaf_expectation_bound_min_degree_two():
    graphs = [
        sl.complete_graph(5),
        sl.cycle_graph(9),
        sl.complete_bipartite(2, 6),
        sl.random_regular(3, 12, sl.stream(4)),
    ]
    for g in graphs:
        assert g.min_degree() >= 2
        total = sum(
            (sl.one_out_leaf_probability(g, v) for v in range(g.n)), Fraction(0)
        )
        assert 4 * total >= g.n


def test_leaf_stats_report():
    g = sl.complete_graph(6)
    report = sl.leaf_stats(g, trials=200, sampler="wilson", rng=sl.stream(12))
    assert report.trials == 200
    assert sum(report.histogram.values()) == 200
    assert report.min_leaves >= 2  # every tree on >= 2 vertices has >= 2 leaves
    assert report.min_leaves <= report.mean_leaves <= report.max_leaves
    assert sum(report.s_values, Fraction(0)) == g.n
    assert report.expected_one_out_leaves == sum(
        report.leaf_probabilities, Fraction(0)
    )


def test_leaf_stats_rejects_bad_trials():
    with pytest.raises(ValueError):
        sl.leaf_stats(sl.complete_graph(3), 0, "wilson", sl.stream(1))
