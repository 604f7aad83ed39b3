import math
from itertools import islice

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spanlab as sl
from spanlab import CapExceededError, MatrixTooLargeError
from spanlab.exact import _BLOCK, _STACK, _hadamard_squared, _primes

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


@st.composite
def integer_matrices(draw):
    """Square integer matrices of order 1-20, some singular, with entries up
    to 2**52 (the float64 path at its bound) or wider than 2**64."""
    n = draw(st.integers(1, 20))
    bits = draw(st.sampled_from([3, 20, 52, 53, 70, 130]))
    entry = st.integers(-(2**bits), 2**bits)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    if n > 1 and draw(st.booleans()):
        i, j = draw(st.permutations(range(n)))[:2]
        c = draw(st.integers(-3, 3))
        rows[i] = [c * x for x in rows[j]]
    return rows


@settings(max_examples=150, deadline=None)
@given(integer_matrices())
@example([[2 ** (10 * _STACK + 2), 1], [1, 2 ** (10 * _STACK + 2)]])  # _STACK + 1 primes
@example([[2**52, -(2**52)], [2**52, 2**52 - 1]])
@example([[0] * 9] * 9)
def test_modular_determinant_matches_bareiss_property(rows):
    expect = sl.bareiss_determinant(rows)
    assert sl.modular_determinant(rows) == expect
    if max(abs(x) for row in rows for x in row) < 2**63:
        assert sl.modular_determinant(np.array(rows, dtype=np.int64)) == expect


def _needs_full_stack(rows):
    """The Hadamard bound needs every prime of the first stack."""
    h2 = math.prod(sum(x * x for x in row) for row in rows)
    return math.prod(islice(_primes(), _STACK - 1)) ** 2 <= 4 * h2


def test_zero_pivots_in_some_slices_of_a_stack():
    first, second, *_, last = islice(_primes(), _STACK)
    both = second * last
    rng = np.random.default_rng(31)
    cases = {}  # name -> (matrix, order of the leading minor that is 0 mod both)

    def big():
        return rng.integers(-(2**40), 2**40, size=(6, 6))

    m = big()
    m[0, 0] = both * 7
    cases["swap at step 0"] = m, 1
    m = big()
    m[1, :2] = m[0, :2] + both * rng.integers(1, 9, size=2)
    cases["swap at step 1"] = m, 2
    m = big()
    m[:, 0] = both * rng.integers(-9, 10, size=6)
    cases["column 0 all zero"] = m, 6
    m = big()
    m[:, 3] = m[:, 0] - 2 * m[:, 2] + both * rng.integers(-9, 10, size=6)
    cases["column 3 all zero"] = m, 6
    n = 2 * _BLOCK + 5  # the zero pivot and the dead column fall in the third block
    k = n - 3
    coef = rng.integers(-3, 4, size=k)
    m = rng.integers(-(2**10), 2**10, size=(n, n))
    m[k, :k + 1] = coef @ m[:k, :k + 1] + both * rng.integers(-9, 10, size=k + 1)
    cases["swap in a later block"] = m, k + 1
    m = rng.integers(-(2**10), 2**10, size=(n, n))
    m[:, k] = m[:, :k] @ coef + both * rng.integers(-9, 10, size=n)
    cases["column dead in a later block"] = m, n
    wide = cases["swap at step 0"][0].tolist()
    wide[5][5] = 2**70 + 1  # residues taken from Python ints
    cases["swap at step 0, wide entries"] = wide, 1
    for name, (rows, order) in cases.items():
        rows = np.asarray(rows).tolist()
        minor = sl.bareiss_determinant([row[:order] for row in rows[:order]])
        assert minor % second == minor % last == 0 != minor % first, name
        assert _needs_full_stack(rows), name
        assert sl.modular_determinant(rows) == sl.bareiss_determinant(rows), name


def test_primes_are_the_primes_below_2_20_largest_first():
    sieve = np.ones(2**20, dtype=bool)
    sieve[:2] = False
    for d in range(2, 2**10):
        if sieve[d]:
            sieve[d * d::d] = False
    expect = np.flatnonzero(sieve[2**19:])[::-1][:1000] + 2**19
    assert list(islice(_primes(), 1000)) == expect.tolist()


def test_hadamard_bound_is_exact_when_int64_would_overflow():
    assert _hadamard_squared(np.array([[2**52, 1], [1, 1]])) == (2**104 + 1) * 2


@pytest.mark.parametrize(
    "rows",
    [[[1.5]], np.array([[2.7, 0], [0, 1]]), [[1.0]], [[1 + 0j]], [["1"]], [[None]],
     [[2**70, 0.5], [1, 1]], np.array([[1, 0], [0, 1]], dtype=np.float32)],
)
def test_modular_determinant_refuses_non_integer_entries(rows):
    with pytest.raises(ValueError, match="integer"):
        sl.modular_determinant(rows)


def test_modular_determinant_refuses_non_square_input():
    with pytest.raises(ValueError, match="square"):
        sl.modular_determinant([[1, 2], [3]])
    with pytest.raises(ValueError, match="square"):
        sl.modular_determinant(np.ones((2, 3), dtype=np.int64))


def test_modular_determinant_order_limit():
    row = [0] * 2**13
    with pytest.raises(MatrixTooLargeError):
        sl.modular_determinant([row] * 2**13)


@pytest.mark.parametrize("a,b", [(1, 4), (2, 3), (3, 397), (8, 200)])
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
    # K_{8,200} is checked against its closed form above: Bareiss on it is slow.
    corpus += [g for name, g in reversibility_families.items() if name != "K_{8,200}"]
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
