import math
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spanlab as sl
from spanlab import CapExceededError
from spanlab.exact import (
    _BLOCK,
    _MAX_ORDER,
    _STACK,
    _determinant,
    _hadamard_squared,
    _primes,
    _top,
)

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


def det(rows):
    """The exact kernel on ``rows``, inside its precondition."""
    a = np.array(rows, dtype=np.int64)
    assert a.ndim == 2 and a.shape[0] == a.shape[1] < _MAX_ORDER
    assert np.abs(a).max() <= 2**52
    return _determinant(a)


def test_modular_determinant_matches_bareiss_on_random_matrices():
    rng = np.random.default_rng(23)
    signs = set()
    for _ in range(300):
        k = int(rng.integers(1, 9))
        m = rng.integers(-9, 10, size=(k, k))
        if k > 1 and rng.random() < 0.25:
            m[-1] = 2 * m[0] - m[1 % k]  # singular
        expect = sl.bareiss_determinant(m.tolist())
        assert det(m.tolist()) == expect
        assert det(m) == expect
        signs.add((expect > 0) - (expect < 0))
    assert signs == {-1, 0, 1}
    assert det([[-7]]) == -7
    assert det([[0]]) == 0


def primes_needed(rows):
    """How many primes of ``_primes`` the Hadamard bound of ``rows`` takes."""
    h2 = math.prod(sum(x * x for x in row) for row in rows)
    modulus = 1
    for count, p in enumerate(_primes(len(rows)), 1):
        modulus *= p
        if modulus * modulus > 4 * h2:
            return count


def test_modular_determinant_zero_residues_and_row_swaps():
    rng = np.random.default_rng(29)
    m = rng.integers(-9, 10, size=(6, 6))

    def p_divides_det(p):
        rows = m.copy()
        rows[2] *= p  # nonsingular with p | det
        return rows.tolist()

    cases = [  # each built from the first prime used at its order
        lambda p: [[p, 1], [1, 0]],  # leading entry 0 mod p: row swap at step 0
        lambda p: [[1, 1, 0], [1, 1 + p, 1], [0, 1, 1]],  # leading 2x2 minor 0 mod p: swap at step 1
        lambda p: [[p, 0], [0, 3]],  # det 3p: the first column is all 0 mod p
        lambda p: [[1, 0], [0, p]],  # det p: the last pivot is 0 mod p
        p_divides_det,
    ]
    for build, order in zip(cases, [2, 3, 2, 2, 6]):
        p = next(_primes(order))
        rows = build(p)
        assert len(rows) == order
        assert det(rows) == sl.bareiss_determinant(rows)
    assert sl.bareiss_determinant(rows) % p == 0 != sl.bareiss_determinant(rows)  # the last case


@st.composite
def integer_matrices(draw):
    """Square integer matrices of order 1-20, some singular, with entries up
    to 2**52, the kernel's bound."""
    n = draw(st.integers(1, 20))
    bits = draw(st.sampled_from([3, 20, 52]))
    entry = st.integers(-(2**bits), 2**bits)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    if n > 1 and draw(st.booleans()):
        i, j = draw(st.permutations(range(n)))[:2]
        most = min(3, 2**bits // (max(map(abs, rows[j])) or 1))  # keeps c * x in bounds
        c = draw(st.integers(-most, most))
        rows[i] = [c * x for x in rows[j]]
    return rows


# Sylvester's Hadamard matrix of order 4 times 2**52, one entry less by 1:
# |det| is about Hadamard's bound, 2**212, and takes one prime past a stack.
WIDE = [[2**52 * x for x in row] for row in ([1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1])]
WIDE[3][3] -= 1


def test_wide_example_needs_one_prime_past_the_stack():
    assert primes_needed(WIDE) == _STACK + 1


@settings(max_examples=150, deadline=None)
@given(integer_matrices())
@example(WIDE)
@example([[2**52, -(2**52)], [2**52, 2**52 - 1]])
@example([[0] * 9] * 9)
def test_modular_determinant_matches_bareiss_property(rows):
    assert det(rows) == sl.bareiss_determinant(rows)


def test_zero_pivots_in_some_slices_of_a_stack():
    rng = np.random.default_rng(31)
    cases = {}  # name -> (matrix, order of the leading minor that is 0 mod both)

    def both(order):
        _, second, *_, last = islice(_primes(order), _STACK)
        return second * last

    # At order 6 the two primes multiply to about 2**51.4, so only unit
    # multiples of their product keep the entries within 2**52.
    def big():
        return rng.integers(-(2**40), 2**40, size=(6, 6))

    def unit(size):
        return rng.choice([-1, 1], size=size)

    m = big()
    m[0, 0] = both(6)
    cases["swap at step 0"] = m, 1
    m = big()
    m[1, :2] = m[0, :2] + both(6) * unit(2)
    cases["swap at step 1"] = m, 2
    m = big()
    m[:, 0] = both(6) * unit(6)
    cases["column 0 all zero"] = m, 6
    m = big()
    m[:, 3] = m[:, 0] - 2 * m[:, 2] + both(6) * unit(6)
    cases["column 3 all zero"] = m, 6
    n = 2 * _BLOCK + 5  # the zero pivot and the dead column fall in the third block
    k = n - 3
    coef = rng.integers(-3, 4, size=k)
    m = rng.integers(-(2**10), 2**10, size=(n, n))
    m[k, :k + 1] = coef @ m[:k, :k + 1] + both(n) * rng.integers(-9, 10, size=k + 1)
    cases["swap in a later block"] = m, k + 1
    m = rng.integers(-(2**10), 2**10, size=(n, n))
    m[:, k] = m[:, :k] @ coef + both(n) * rng.integers(-9, 10, size=n)
    cases["column dead in a later block"] = m, n
    for name, (rows, order) in cases.items():
        rows = np.asarray(rows).tolist()
        first, second, *_, last = islice(_primes(len(rows)), _STACK)
        minor = sl.bareiss_determinant([row[:order] for row in rows[:order]])
        assert minor % second == minor % last == 0 != minor % first, name
        assert primes_needed(rows) >= _STACK, name  # every slice of the first stack runs
        assert det(rows) == sl.bareiss_determinant(rows), name


# (order, entry bits, singular): orders above 2 * _BLOCK accumulate the
# unbalanced sums of several blocks before a column is balanced.
WIDE_RANDOM = [
    (30, 52, False), (30, 52, True), (41, 52, False), (55, 52, False),
    (66, 40, True), (70, 20, False), (80, 10, False), (80, 3, True),
]


def wide_random(order, bits, singular):
    rng = np.random.default_rng([order, bits, singular])
    m = rng.integers(-(2**bits), 2**bits, size=(order, order), endpoint=True)
    if singular:
        m[:2] //= 2
        m[-1] = m[0] - m[1]  # |entries| stay within 2**bits
    return m.tolist()


@pytest.mark.parametrize("order,bits,singular", WIDE_RANDOM)
def test_modular_determinant_matches_bareiss_at_orders_30_to_80(order, bits, singular):
    rows = wide_random(order, bits, singular)
    expect = sl.bareiss_determinant(rows)
    assert (expect == 0) == singular
    assert det(rows) == expect


def test_wide_random_prime_counts_are_not_all_whole_stacks():
    counts = [primes_needed(wide_random(*case)) for case in WIDE_RANDOM]
    assert min(counts) > _STACK and any(c % _STACK for c in counts)


def reference_primes(lo, hi):
    """The primes in [lo, hi), largest first, for 2**19 < lo: the odd numbers
    of the window less the multiples of every odd d up to sqrt(hi)."""
    start = lo | 1
    odd = np.ones((hi - start + 1) // 2, dtype=bool)  # start, start + 2, ...
    for d in range(3, math.isqrt(hi) + 1, 2):
        first = -(-start // d) * d
        first += d * (first % 2 == 0)  # the first odd multiple
        odd[(first - start) // 2::d] = False
    return (start + 2 * np.flatnonzero(odd)[::-1]).tolist()


@pytest.mark.parametrize("order", [1, 2, 4, 6, 69, 149, 399, 8191])
def test_primes_are_the_primes_from_top_down_to_2_19(order):
    # The top 2**22 integers up to _top(order), at order 8191 all down to
    # 2**19.  _top(4) is itself prime.
    hi = _top(order) + 1
    lo = max(hi - 2**22, 2**19 + 1)
    expect = reference_primes(lo, hi)
    got = _primes(order)
    assert list(islice(got, len(expect))) == expect
    assert (next(got, None) is None) == (lo == 2**19 + 1)


def test_top_is_the_largest_prime_bound_for_each_order():
    def fits(m, p):
        return m * (Fraction(p, 2) + 2) ** 2 + p < 2**52

    for m in range(1, _MAX_ORDER):
        top = _top(m)
        assert fits(m, top) and top >= 2**20
        assert top + 1 == 2**26 or not fits(m, top + 1)


def test_hadamard_bound_is_exact_when_int64_would_overflow():
    assert _hadamard_squared(np.array([[2**52, 1], [1, 1]])) == (2**104 + 1) * 2


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
