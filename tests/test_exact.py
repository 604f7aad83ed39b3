import numpy as np
import pytest

import spanlab as sl
from spanlab import CapExceededError, MatrixTooLargeError
from spanlab.exact import _primes

from helpers import (
    bareiss_count,
    brute_count_spanning_trees,
    brute_spanning_tree_edge_sets,
    random_connected_graph,
)
from test_acceptance import SEED, reversibility_families, small_random_graphs  # noqa: F401


@pytest.mark.parametrize("n", [*range(2, 10), 150])
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


def test_modular_determinant_matches_bareiss_on_random_matrices():
    rng = np.random.default_rng(23)
    signs = set()
    for _ in range(300):
        k = int(rng.integers(1, 9))
        m = rng.integers(-9, 10, size=(k, k))
        if k > 1 and rng.random() < 0.25:
            m[-1] = 2 * m[0] - m[1 % k]  # singular
        expect = sl.bareiss_determinant(m.tolist())
        assert sl.modular_determinant(m.tolist()) == expect
        assert sl.modular_determinant(m) == expect
        signs.add((expect > 0) - (expect < 0))
    assert signs == {-1, 0, 1}
    # Entries wider than 64 bits, and more primes than one.
    big = [[2**70 + 3, -(2**66)], [5, 2**65 + 1]]
    assert sl.modular_determinant(big) == sl.bareiss_determinant(big)
    assert sl.modular_determinant([[-7]]) == -7
    assert sl.modular_determinant([[0]]) == 0
    assert sl.modular_determinant([]) == 1


def test_modular_determinant_zero_residues_and_row_swaps():
    p = next(_primes())  # the first prime used
    cases = [
        [[p, 1], [1, 0]],  # leading entry 0 mod p: row swap at step 0
        [[1, 1, 0], [1, 1 + p, 1], [0, 1, 1]],  # leading 2x2 minor 0 mod p: swap at step 1
        [[p, 0], [0, 3]],  # det 3p: the first column is all 0 mod p
        [[1, 0], [0, p]],  # det p: the last pivot is 0 mod p
    ]
    rng = np.random.default_rng(29)
    m = rng.integers(-9, 10, size=(6, 6))
    m[2] *= p  # nonsingular with p | det
    cases.append(m.tolist())
    for rows in cases:
        expect = sl.bareiss_determinant(rows)
        assert sl.modular_determinant(rows) == expect
    assert sl.bareiss_determinant(cases[-1]) % p == 0
    assert sl.bareiss_determinant(cases[-1]) != 0


def test_modular_determinant_order_limit():
    row = [0] * 2**13
    with pytest.raises(MatrixTooLargeError):
        sl.modular_determinant([row] * 2**13)


@pytest.mark.parametrize("a,b", [(1, 4), (2, 3), (3, 397)])
def test_complete_bipartite_closed_form(a, b):
    assert sl.count_spanning_trees(sl.complete_bipartite(a, b)) == a ** (b - 1) * b ** (a - 1)


def test_c03_corpus_counts_match_bareiss(small_random_graphs, reversibility_families):
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
    for g in corpus:
        assert sl.count_spanning_trees(g) == bareiss_count(g)


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
