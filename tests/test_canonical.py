import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spanlab as sl
from spanlab import CapExceededError, NotATreeError
from spanlab.canonical import code_from_neighbors

from helpers import (
    brute_isomorphic,
    prufer_tree_edges,
    random_tree_edges,
    reference_code,
    reference_histogram_key,
    relabel_edges,
    tree_centers,
)


def _neighbors(edges, n):
    nbrs = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    return nbrs


@st.composite
def pruefer_trees(draw):
    """Neighbour lists of a tree decoded from a random Pruefer sequence,
    every row in a random order."""
    n = draw(st.integers(1, 60))
    seq = draw(st.lists(st.integers(0, n - 1), min_size=max(n - 2, 0), max_size=max(n - 2, 0)))
    nbrs = _neighbors(prufer_tree_edges(n, seq), n)
    shuffle = draw(st.randoms(use_true_random=False))
    for row in nbrs:
        shuffle.shuffle(row)
    return nbrs


@settings(max_examples=400, deadline=None)
@given(pruefer_trees())
def test_code_matches_reference_on_pruefer_trees(nbrs):
    assert code_from_neighbors(nbrs) == reference_code(nbrs)


def _spider(legs):
    """One hub with paths of the given lengths hanging off it."""
    edges, n = [], 1
    for length in legs:
        prev = 0
        for _ in range(length):
            edges.append((prev, n))
            prev, n = n, n + 1
    return edges, n


@pytest.mark.parametrize(
    "edges, n, centers",
    [
        ([], 1, 1),
        ([(0, 1)], 2, 2),
        ([(0, 1), (1, 2)], 3, 1),
        ([(0, 2), (2, 1)], 3, 1),
        ([(i, i + 1) for i in range(9)], 10, 2),  # even path
        ([(i, i + 1) for i in range(10)], 11, 1),  # odd path
        ([(0, v) for v in range(1, 12)], 12, 1),  # star
        ([(5, v) for v in range(5)] + [(5, v) for v in range(6, 12)], 12, 1),  # star at 5
        (*_spider([3, 3, 2, 1]), 1),  # one center, uneven legs
        ([(0, 1), (0, 2), (0, 3), (3, 4), (4, 5), (4, 6), (5, 7)], 8, 2),  # two centers
        ([(0, 1), (1, 2), (1, 3), (2, 4), (2, 5)], 6, 2),  # double star
    ],
)
def test_code_matches_reference_on_shapes(edges, n, centers):
    nbrs = _neighbors(edges, n)
    assert code_from_neighbors(nbrs) == reference_code(nbrs)
    assert sl.canonical_code(edges, n) == reference_code(nbrs)
    # The oracle's leaf stripping may list a lone center twice.
    assert len(set(tree_centers(nbrs))) == centers


def test_code_matches_reference_on_sampled_trees():
    for g in (sl.random_regular(16, 300, sl.stream(21)), sl.complete_bipartite(3, 60)):
        for t in range(10):
            tree = sl.sample_wilson(g, sl.stream(22, t))
            assert sl.code_from_neighbors(tree.neighbors) == reference_code(tree.neighbors)


def test_path_vs_star_codes_differ():
    path = sl.canonical_code([(0, 1), (1, 2), (2, 3)], 4)
    star = sl.canonical_code([(0, 1), (0, 2), (0, 3)], 4)
    assert path != star


def test_relabeling_invariance():
    path = sl.canonical_code([(0, 1), (1, 2), (2, 3)], 4)
    # Same path with labels permuted: 2-0-3-1.
    relabeled = sl.canonical_code([(0, 2), (0, 3), (1, 3)], 4)
    assert path == relabeled


def test_k4_spanning_trees_two_shapes():
    trees = sl.enumerate_spanning_trees(sl.complete_graph(4), 100)
    codes = {sl.code_from_neighbors(t.neighbors) for t in trees}
    assert len(codes) == 2


def test_not_a_tree_errors():
    with pytest.raises(NotATreeError):
        sl.canonical_code([(0, 1), (1, 2), (0, 2)], 3)  # cycle
    with pytest.raises(NotATreeError):
        sl.canonical_code([(0, 1)], 3)  # disconnected
    with pytest.raises(NotATreeError):
        sl.canonical_code([(0, 0)], 1)


def test_tiny_trees():
    assert sl.canonical_code([], 1) == b"()"
    assert sl.canonical_code([(0, 1)], 2) == b"(())"


def test_code_equality_matches_brute_isomorphism():
    rng = np.random.default_rng(41)
    checked_equal = 0
    for trial in range(300):
        n = int(rng.integers(2, 9))
        a = random_tree_edges(n, rng)
        if trial % 2:
            perm = list(rng.permutation(n))
            b = relabel_edges(a, perm)
        else:
            b = random_tree_edges(n, rng)
        same_code = sl.canonical_code(a, n) == sl.canonical_code(b, n)
        iso = brute_isomorphic(a, b, n)
        assert same_code == iso
        checked_equal += same_code
    assert checked_equal >= 150  # the relabeled half must all collide


def test_degree_histogram_examples():
    g = sl.complete_graph(5)
    star = sl.SpanningTree.from_edges(g, [(0, 1), (0, 2), (0, 3), (0, 4)])
    assert sl.histogram_key(star.degrees) == ((1, 4), (4, 1))
    path = sl.SpanningTree.from_edges(g, [(0, 1), (1, 2), (2, 3), (3, 4)])
    assert sl.histogram_key(path.degrees) == ((1, 2), (2, 3))


def test_degree_histogram_identities():
    rng = np.random.default_rng(43)
    g = sl.complete_graph(8)
    for trial in range(20):
        t = sl.sample_wilson(g, sl.stream(600 + trial))
        hist = dict(sl.histogram_key(t.degrees))
        assert sum(hist.values()) == g.n
        assert sum(k * c for k, c in hist.items()) == 2 * (g.n - 1)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 70), max_size=200))
@example([])
@example([1])
def test_histogram_key_matches_dict_loop(degrees):
    key = sl.histogram_key(degrees)
    assert key == reference_histogram_key(degrees)
    assert sl.histogram_key(tuple(degrees)) == key


def test_distinct_histograms_imply_distinct_codes():
    rng = np.random.default_rng(47)
    for _ in range(200):
        n = int(rng.integers(3, 9))
        a = random_tree_edges(n, rng)
        b = random_tree_edges(n, rng)
        if sl.histogram_key(_degrees(a, n)) != sl.histogram_key(_degrees(b, n)):
            assert sl.canonical_code(a, n) != sl.canonical_code(b, n)


def _degrees(edges, n):
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def test_count_non_isomorphic_exact():
    assert sl.count_non_isomorphic(sl.complete_graph(4), "exact", 100).distinct == 2
    assert sl.count_non_isomorphic(sl.cycle_graph(6), "exact", 10).distinct == 1


def test_count_non_isomorphic_k24_cross_oracle():
    g = sl.complete_bipartite(2, 4)
    report = sl.count_non_isomorphic(g, "exact", 100)
    # Independent route: enumerate labeled trees, group by permutation
    # isomorphism.
    trees = [t.edges() for t in sl.enumerate_spanning_trees(g, 100)]
    classes: list[list] = []
    for edges in trees:
        for cls in classes:
            if brute_isomorphic(edges, cls[0], g.n):
                cls.append(edges)
                break
        else:
            classes.append([edges])
    assert report.distinct == len(classes) == 2


def test_count_non_isomorphic_budget():
    with pytest.raises(CapExceededError):
        sl.count_non_isomorphic(sl.complete_graph(5), "exact", 10)
    with pytest.raises(ValueError):
        sl.count_non_isomorphic(sl.complete_graph(4), "bogus", 10)


def test_sampled_mode_monotone_in_budget():
    g = sl.complete_graph(7)
    counts = [
        sl.count_non_isomorphic(g, "sampled", budget, seed=77).distinct
        for budget in (10, 50, 200, 500)
    ]
    assert counts == sorted(counts)
    report = sl.count_non_isomorphic(g, "sampled", 500, seed=77)
    assert 0.0 <= report.unseen_mass <= 1.0
    assert report.coverage == pytest.approx(1.0 - report.unseen_mass)
