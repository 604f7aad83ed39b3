import math
import tracemalloc
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spanlab as sl
from spanlab import CapExceededError, exact
from spanlab.exact import (
    _BLOCK,
    _MAX_ORDER,
    _STACK,
    _determinant,
    _hadamard_squared,
    _primes,
    _stacked_determinants,
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
    assert np.abs(a).max() <= 2**52 and (a == a.T).all()
    return _determinant(a)


def dominant(upper, extra):
    """The symmetric integer matrix with strict upper triangle that of the
    square ``upper`` and each diagonal entry the sum of the magnitudes of
    the rest of its row plus ``extra`` (each at least 1).  It is strictly
    diagonally dominant, so positive definite; with ``upper`` <= 0 it is
    the reduced Laplacian of a weighted complete graph whose every vertex
    is joined to the deleted one."""
    off = np.triu(np.asarray(upper, dtype=np.int64), 1)
    off += off.T
    return (off + np.diag(np.abs(off).sum(axis=1) + extra)).tolist()


def dominant_random(rng, order, bits, laplacian):
    """A random ``dominant`` matrix with entries up to 2**bits, or up to
    its order where that is larger."""
    most = max(1, 2**bits // order)
    upper = rng.integers(-most, 0 if laplacian else most, size=(order, order), endpoint=True)
    extra = rng.integers(1, max(1, 2**bits - (order - 1) * most), size=order, endpoint=True)
    return dominant(upper, extra)


def test_modular_determinant_matches_bareiss_on_random_matrices():
    rng = np.random.default_rng(23)
    for _ in range(300):
        k = int(rng.integers(1, 9))
        rows = dominant_random(rng, k, int(rng.integers(1, 53)), rng.random() < 0.5)
        expect = sl.bareiss_determinant(rows)
        assert expect > 0
        assert det(rows) == expect
        assert det(np.array(rows)) == expect
    assert det([[7]]) == 7


def primes_needed(rows):
    """How many primes of ``_primes`` the Hadamard bound of ``rows`` takes."""
    h2 = math.prod(sum(x * x for x in row) for row in rows)
    modulus = 1
    for count, p in enumerate(_primes(len(rows)), 1):
        modulus *= p
        if modulus * modulus > 4 * h2:
            return count


def kernel(rows, primes):
    """``_stacked_determinants`` of ``rows`` over one stack of ``primes``."""
    a = np.array(rows, dtype=np.int64)
    return _stacked_determinants(a, primes, np.empty((len(primes), *a.shape)))


def test_a_prime_dividing_a_leading_minor_is_skipped():
    p = next(_primes(2))
    b = 12345
    # (matrix, the step whose pivot is 0 mod p): the leading entry is p,
    # and the last pivot is det = p.
    for rows, step in [([[p, 1], [1, 1]], 0), ([[1, b], [b, b * b + p]], 1)]:
        assert kernel(rows, [p]) == [(None, step)]
        assert det(rows) == sl.bareiss_determinant(rows) > 0


@pytest.mark.parametrize(
    "rows", [[[1, 1], [1, 1]], [[0, 1], [1, 0]], [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]]
)
def test_a_zero_leading_minor_fails_at_once(rows, monkeypatch):
    # Singular, indefinite with a 0 leading entry, and the Laplacian of a
    # triangle left unreduced: no prime gives a determinant, and the
    # first stack's primes already multiply past Hadamard's bound.
    calls = []

    def counted(*args):
        calls.append(args[1])
        return _stacked_determinants(*args)

    monkeypatch.setattr(exact, "_stacked_determinants", counted)
    with pytest.raises(AssertionError, match="not positive definite"):
        _determinant(np.array(rows))
    assert len(calls) == 1


@st.composite
def positive_definite_matrices(draw):
    """Strictly diagonally dominant symmetric integer matrices of order
    1-20 with entries up to 2**52, the kernel's bound, half of them weighted
    reduced Laplacians."""
    n = draw(st.integers(1, 20))
    bits = draw(st.sampled_from([3, 20, 52]))
    most = max(1, 2**bits // n)
    entry = st.integers(-most, 0 if draw(st.booleans()) else most)
    upper = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    pad = st.integers(1, max(1, 2**bits - (n - 1) * most))
    extra = draw(st.lists(pad, min_size=n, max_size=n))
    return dominant(upper, extra)


# 2**52 on the diagonal, 2**50 beside it, and the last entry less by 1:
# |det| is about 2**207.7, two thirds of Hadamard's bound, which takes one
# prime past a stack.
WIDE = [
    [2**52, 2**50, 0, 0],
    [2**50, 2**52, 2**50, 0],
    [0, 2**50, 2**52, 2**50],
    [0, 0, 2**50, 2**52 - 1],
]


def test_wide_example_needs_one_prime_past_the_stack():
    assert max(max(map(abs, row)) for row in WIDE) == 2**52
    assert primes_needed(WIDE) == _STACK + 1


@settings(max_examples=150, deadline=None)
@given(positive_definite_matrices())
@example(WIDE)
@example([[2**52, 2**52 - 1], [2**52 - 1, 2**52]])
@example([[next(_primes(2)), 1], [1, 1]])
def test_modular_determinant_matches_bareiss_property(rows):
    assert det(rows) == sl.bareiss_determinant(rows)


def with_minor_divisible_by(rows, k, modulus):
    """``rows`` with diagonal entry k raised by less than ``modulus`` so that
    the leading minor of order k + 1 is divisible by it.  That minor is
    linear in the entry, with the leading minor of order k as slope, and
    raising a diagonal entry keeps a dominant matrix dominant."""
    rows = [list(row) for row in rows]
    slope = sl.bareiss_determinant([row[:k] for row in rows[:k]])
    minor = sl.bareiss_determinant([row[:k + 1] for row in rows[:k + 1]])
    rows[k][k] += -minor * pow(slope, -1, modulus) % modulus
    return rows


def test_zero_pivots_in_some_slices_of_a_stack():
    rng = np.random.default_rng(31)
    n = 2 * _BLOCK + 5
    # (order, entry bits, k): at order 6 the second and last prime multiply
    # to about 2**51.4, which entries of 2**40 leave room for.  In the last
    # case the zero pivot falls in the third block.
    for order, bits, k in [(6, 40, 0), (6, 40, 1), (6, 40, 5), (n, 10, n - 3)]:
        primes = list(islice(_primes(order), _STACK))
        first, second, *_, last = primes
        rows = with_minor_divisible_by(
            dominant_random(rng, order, bits, False), k, second * last
        )
        minor = sl.bareiss_determinant([row[:k + 1] for row in rows[:k + 1]])
        assert minor % second == minor % last == 0 != minor % first, k
        assert primes_needed(rows) >= _STACK, k  # every slice of the first stack runs
        expect = sl.bareiss_determinant(rows)
        dead = {1, _STACK - 1}
        assert kernel(rows, primes) == [
            (None, k) if i in dead else (expect % p, None) for i, p in enumerate(primes)
        ], k
        assert det(rows) == expect, k


# (order, entry bits, laplacian): orders above 2 * _BLOCK accumulate the
# unbalanced sums of several blocks before a row is balanced.
WIDE_RANDOM = [
    (30, 52, False), (30, 52, True), (41, 52, False), (55, 52, False),
    (66, 40, True), (70, 20, False), (80, 10, False), (80, 3, True),
]


def wide_random(order, bits, laplacian):
    return dominant_random(np.random.default_rng([order, bits, laplacian]), order, bits, laplacian)


@pytest.mark.parametrize("order,bits,laplacian", WIDE_RANDOM)
def test_modular_determinant_matches_bareiss_at_orders_30_to_80(order, bits, laplacian):
    rows = wide_random(order, bits, laplacian)
    assert max(max(map(abs, row)) for row in rows) <= max(2**bits, order)
    assert det(rows) == sl.bareiss_determinant(rows)


def test_wide_random_prime_counts_are_not_all_whole_stacks():
    counts = [primes_needed(wide_random(*case)) for case in WIDE_RANDOM]
    assert min(counts) > _STACK and any(c % _STACK for c in counts)


def test_count_holds_one_stack_of_memory():
    # count-exact's peak-RSS bound is 5%, about 1.6 MB, and the stack of
    # _STACK float64 (m, m) slices, 1.42 MB here, is most of what a count
    # allocates.  Beside it: the int16 Laplacian; at a block boundary one
    # slice's trailing product of (m - _BLOCK)**2 floats and numpy's copies
    # of its strided operands, 2.2 products measured and 3 allowed; the
    # kernel's four (_STACK, m) row buffers; and two of numpy's cast
    # buffers of np.getbufsize() floats.  That is 542 KB; 362 KB was
    # measured.
    g = sl.complete_graph(150)
    m = g.n - 1
    slack = 2 * m * m + 8 * (3 * (m - _BLOCK) ** 2 + 4 * _STACK * m + 2 * np.getbufsize())
    tracemalloc.start()
    try:
        sl.count_spanning_trees(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _STACK * m * m * 8 + slack


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
