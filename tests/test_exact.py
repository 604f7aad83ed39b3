import numpy as np
import pytest

import spanlab as sl
from spanlab import CapExceededError

from helpers import brute_count_spanning_trees, brute_spanning_tree_edge_sets, random_connected_graph


@pytest.mark.parametrize("n", range(2, 10))
def test_cayley_formula(n):
    assert sl.count_spanning_trees(sl.complete_graph(n)) == n ** (n - 2)


def test_path_has_one_tree():
    assert sl.count_spanning_trees(sl.path_graph(5)) == 1


def test_k23_count_matches_brute_force():
    g = sl.complete_bipartite(2, 3)
    assert brute_count_spanning_trees(g) == 12
    assert sl.count_spanning_trees(g) == 12


def test_disconnected_counts_zero():
    g = sl.build_graph([(0, 1), (2, 3)], 4)
    assert sl.count_spanning_trees(g) == 0


def test_single_vertex():
    g = sl.build_graph([], 1)
    assert sl.count_spanning_trees(g) == 1
    assert len(sl.enumerate_spanning_trees(g, 5)) == 1


def test_bareiss_matches_numpy_on_random_matrices():
    rng = np.random.default_rng(17)
    for _ in range(40):
        k = int(rng.integers(1, 7))
        m = rng.integers(-5, 6, size=(k, k))
        expect = int(round(float(np.linalg.det(m))))
        assert sl.bareiss_determinant(m.tolist()) == expect
    # Zero leading pivots force the row-swap path.
    assert sl.bareiss_determinant([[0, 1], [1, 0]]) == -1
    assert sl.bareiss_determinant([[0, 2, 1], [0, 0, 3], [4, 5, 6]]) == 24
    assert sl.bareiss_determinant([[1, 2], [2, 4]]) == 0


def test_enumerate_triangle():
    trees = sl.enumerate_spanning_trees(sl.cycle_graph(3), cap=10)
    assert len(trees) == 3
    assert len({t.edge_key() for t in trees}) == 3


def test_enumerate_k4_distinct_and_complete():
    g = sl.complete_graph(4)
    trees = sl.enumerate_spanning_trees(g, cap=100)
    keys = {t.edge_key() for t in trees}
    assert len(trees) == 16 and len(keys) == 16
    assert keys == brute_spanning_tree_edge_sets(g)
    for t in trees:
        assert t.is_spanning_tree()


def test_enumerate_cap_exceeded():
    with pytest.raises(CapExceededError):
        sl.enumerate_spanning_trees(sl.complete_graph(4), cap=10)


def test_enumerate_matches_count_on_random_graphs():
    rng = np.random.default_rng(5)
    for _ in range(15):
        n = int(rng.integers(3, 8))
        g = random_connected_graph(n, rng)
        count = sl.count_spanning_trees(g)
        trees = sl.enumerate_spanning_trees(g, cap=count)
        assert len(trees) == count
        assert len({t.edge_key() for t in trees}) == count


def test_enumerate_eight_vertex_graph():
    g = random_connected_graph(8, np.random.default_rng(11), p=0.4)
    count = sl.count_spanning_trees(g)
    trees = sl.enumerate_spanning_trees(g, cap=count)
    assert len(trees) == count == brute_count_spanning_trees(g)


def test_degree_product_examples():
    assert sl.degree_product(sl.complete_graph(4)) == 81
    assert sl.degree_product(sl.complete_bipartite(2, 3)) == 72
    assert sl.degree_product(sl.complete_graph(2)) == 1


def test_kostochka_bound_examples():
    assert sl.count_spanning_trees(sl.cycle_graph(5)) == 5
    assert sl.kostochka_upper_bound_holds(sl.complete_graph(4), 16)  # 48 <= 81
    assert sl.kostochka_upper_bound_holds(sl.cycle_graph(5), 5)  # 20 <= 32
    assert sl.kostochka_upper_bound_holds(sl.complete_graph(2), 1)  # 1 <= 1
    # A count above the degree product over n-1 fails the bound.
    assert not sl.kostochka_upper_bound_holds(sl.complete_graph(4), 28)  # 84 > 81
    with pytest.raises(ValueError):
        sl.kostochka_upper_bound_holds(sl.build_graph([(0, 1), (2, 3)], 4), 0)


def test_edge_deletion_never_increases_count():
    for g in (sl.complete_graph(5), sl.complete_bipartite(2, 3)):
        base = sl.count_spanning_trees(g)
        for drop in g.edges():
            rest = [e for e in g.edges() if e != drop]
            assert sl.count_spanning_trees(sl.build_graph(rest, g.n)) <= base
