"""Exact spanning-tree counting and enumeration.

``count_spanning_trees`` is the one way into the exact determinant: the
count is the determinant of the reduced Laplacian of a connected graph, a
symmetric positive definite matrix, evaluated by multi-modular LDLᵀ
elimination + CRT, Hadamard-bounded (``_determinant``), so results are
bit-exact at any size.  The primes are sized to the order of the matrix,
as large as keeps float64 elimination exact, and eliminated ``_STACK`` = 8
at a time.  No pivot search is needed: a prime that divides a leading
minor is skipped.  Fraction-free (Bareiss) elimination is kept as the
independent oracle that the tests check against and the benchmark traces.
Enumeration is contraction/deletion on an explicit stack with a cap
guard.
"""

from __future__ import annotations

import math
from itertools import chain

import numpy as np

from .graphs import DomainError, Graph
from .trees import SpanningTree

# Elimination mod p runs in float64, whose integers are exact below 2**53.
# Residues are balanced: r = x - rint(x * (1/p)) * p.  For an integer
# |x| <= 2**52 the computed quotient carries two roundings, so it is within
# 1.01/p of x/p; hence |r| <= p/2 + 2, and rint(...) * p, at most |x| + p in
# magnitude, is exact too.  Every partial sum of the elimination of an
# order-m matrix is one entry, balanced or in [0, p), minus at most m
# products of two balanced residues, so its magnitude is at most
# m*(p/2 + 2)**2 + p, which ``_top(m)`` keeps below 2**52 by the choice of
# p.  So every partial sum, in whatever order BLAS adds, is an exact
# integer that balances again.  At m < 2**13 the primes between 2**19 and
# 2**20 all qualify, so the Hadamard bound of any matrix in the kernel's
# range is covered.
_MAX_ORDER = 2**13

# Primes whose residues one elimination carries at once, as a (P, m, m)
# float64 stack, so that a step costs the same numpy calls for all P.  Each
# slice adds 8*m*m bytes to peak memory: the stack of 8 holds 1.42 MB at
# order 149 and 10.2 MB at order 399 (CHANGES.md).
_STACK = 8

# Columns per block of the elimination.  Crout steps inside a block take
# their products over the block's rows only; the finished block is then
# subtracted from the rest of the matrix by one matrix product per prime.
# Without blocks every step re-reads the whole factored part, and at
# n = 400 the stack no longer fits in cache (CHANGES.md).
_BLOCK = 32

# Width of the window of integers that ``_primes`` sieves at a time, at one
# slice per prime below sqrt(p): about 250 primes near 2**23, five times
# what count-exact uses at order 149.
_WINDOW = 2**12


class CapExceededError(DomainError, RuntimeError):
    code = "CapExceeded"


class MatrixTooLargeError(DomainError, ValueError):
    """The matrix is outside the range where modular elimination is exact."""

    code = "MatrixTooLarge"


def bareiss_determinant(rows: list[list[int]]) -> int:
    """Exact determinant of a square integer matrix.

    Fraction-free elimination: every division is exact over the integers,
    so no rounding occurs at any intermediate step.
    """
    a = [list(map(int, row)) for row in rows]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            row_i = a[i]
            row_k = a[k]
            factor = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - factor * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def _top(m: int) -> int:
    """The largest p < 2**26 with m*(p/2 + 2)**2 + p < 2**52.

    The 2**26 cap keeps a pivot scaling, a balanced residue times an
    inverse below p, under 2**52 too.
    """

    def fits(p):
        return m * (p + 4) ** 2 + 4 * p < 2**54  # the bound, times 4

    p = min(2**26 - 1, math.isqrt(2**54 // m) - 4)
    while not fits(p):
        p -= 1
    while p + 1 < 2**26 and fits(p + 1):
        p += 1
    return p


def _primes(m: int):
    """Primes between 2**19 and ``_top(m)``, largest first, for a matrix of
    order m."""
    hi = _top(m) + 1
    root = math.isqrt(hi) + 1
    small = np.ones(root, dtype=bool)
    small[:2] = False
    for d in range(2, math.isqrt(root) + 1):
        if small[d]:
            small[d * d::d] = False
    small = np.flatnonzero(small).tolist()
    while hi > 2**19 + 1:
        lo = max(hi - _WINDOW, 2**19 + 1)
        # Cross out every multiple of a small prime in [lo, hi); all of
        # them are composite, as lo > 2**19 exceeds every small prime.
        keep = np.ones(hi - lo, dtype=bool)
        for d in small:
            keep[-lo % d::d] = False
        yield from (np.flatnonzero(keep)[::-1] + lo).tolist()
        hi = lo


def _hadamard_squared(a: np.ndarray) -> int:
    """H**2, the product of the squared row 2-norms, exactly."""
    if int(max(-a.min(), a.max())) ** 2 * len(a) < 2**63:
        # No row sum can overflow int64.
        sums = np.einsum("ij,ij->i", a, a, dtype=np.int64, casting="same_kind").tolist()
    else:
        sums = [sum(x * x for x in row) for row in a.tolist()]
    return math.prod(sums)


def _balance(x, q, qinv, t, out=None) -> None:
    """out = x - rint(x * qinv) * q, the balanced residues of the integers in
    ``x`` (|x| <= 2**52) modulo q; ``t`` is scratch of x's shape."""
    np.multiply(x, qinv, out=t)
    np.rint(t, out=t)
    np.multiply(t, q, out=t)
    np.subtract(x, t, out=x if out is None else out)


def _stacked_determinants(a: np.ndarray, primes: list[int], s: np.ndarray) -> list:
    """For each prime p, (det(a) mod p in [1, p), None) by one LDLᵀ
    elimination over the stack ``s``, or (None, k) when p divides the
    leading minor of ``a`` of order k + 1.

    ``a`` is symmetric positive definite.  ``s`` has shape (len(primes), m,
    m) and is overwritten: slice i gets the residues of ``a`` mod
    primes[i], balanced in float64 in place, and is factored as L·D·Lᵀ,
    all slices at once.  Step k forms row k of U = D·Lᵀ by one batched
    vector-matrix product over the rows of the current block (Crout).  By
    symmetry that row is also column k of L·D, so column k of L is the row
    times the pivot's inverse.  At a block boundary the finished block is
    subtracted from the rest, whose entries are then partial sums that
    balance when their row is formed.  A slice whose pivot is 0 mod its
    prime dies: its modulus is taken as 1, so its pivot inverses are 0,
    which keeps its entries bounded while the other slices go on.
    """
    g, m = s.shape[:2]
    q = np.array(primes, dtype=np.float64)[:, None]
    _balance(np.broadcast_to(a, s.shape), q[:, :, None], 1.0 / q[:, :, None], s, out=s)
    # w holds step k's pivot row in its first m-k columns.  Whole rows are
    # balanced, contiguous and unbroadcast; the stale tail stays balanced.
    w = np.zeros((g, m))
    t = np.empty_like(w)
    wq = np.repeat(q, m, axis=1)
    wqinv = 1.0 / wq
    mods = list(primes)
    died = [None] * g
    dets = [1] * g
    for k in range(m):
        k0 = k - k % _BLOCK
        if k == k0 and k:
            for x in s:
                x[k:, k:] -= x[k:, k - _BLOCK:k] @ x[k - _BLOCK:k, k:]
        row = w[:, :m - k]
        np.subtract(s[:, k, k:], (s[:, k, None, k0:k] @ s[:, k0:k, k:])[:, 0], out=row)
        _balance(w, wq, wqinv, t)
        s[:, k, k + 1:] = row[:, 1:]
        pivots = list(map(int, w[:, 0].tolist()))
        if 0 in pivots:
            for i, v in enumerate(pivots):
                if not v and died[i] is None:
                    died[i], mods[i] = k, 1
        dets = [d * v % p for d, v, p in zip(dets, pivots, mods)]
        w *= np.array([pow(v, -1, p) for v, p in zip(pivots, mods)], float)[:, None]
        _balance(w, wq, wqinv, t)
        s[:, k + 1:, k] = row[:, 1:]
    return [(d or None, k) for d, k in zip(dets, died)]


def _determinant(a: np.ndarray) -> int:
    """Exact determinant of ``a``: a symmetric positive definite integer
    array of order below ``_MAX_ORDER`` with every entry at most 2**52 in
    magnitude.

    Residues modulo the primes of ``_primes(m)``, m the order of ``a``, up
    to ``_STACK`` primes per float64 elimination
    (``_stacked_determinants``), are combined by Chinese remaindering until
    their product M exceeds 2H, where H, the product of the row 2-norms
    (Hadamard's bound), bounds |det|; a prime that divides a leading minor
    is skipped.  The residue in (-M/2, M/2) is then the determinant
    itself.  Once the primes skipped at one step multiply past H, the
    leading minor there is 0, which breaks the precondition: a bug in the
    caller, raised as AssertionError.
    """
    h2 = _hadamard_squared(a)
    candidates = _primes(len(a))
    stack = np.empty((0, *a.shape))
    skipped = {}  # step -> the product of the primes that died there
    det, modulus = 0, 1
    while modulus * modulus <= 4 * h2:
        group, cover = [], modulus
        while len(group) < _STACK and cover * cover <= 4 * h2:
            p = next(candidates, None)
            if p is None:
                raise MatrixTooLargeError("Hadamard bound exceeds the product of the primes")
            group.append(p)
            cover *= p
        if len(stack) < len(group):
            stack = np.empty((len(group), *a.shape))
        for p, (r, k) in zip(group, _stacked_determinants(a, group, stack[:len(group)])):
            if r is None:
                skipped[k] = skipped.get(k, 1) * p
                if skipped[k] ** 2 > h2:
                    raise AssertionError("a leading minor is 0: not positive definite")
            else:
                det += modulus * ((r - det) * pow(modulus, -1, p) % p)
                modulus *= p
    return det - modulus if 2 * det > modulus else det


def count_spanning_trees(g: Graph) -> int:
    """Exact number of labeled spanning trees; 0 for disconnected graphs."""
    if g.n == 0 or not g.is_connected():
        return 0
    n = g.n
    if n == 1:
        return 1
    if n - 1 >= _MAX_ORDER:  # before allocating the (n-1)^2 matrix
        raise MatrixTooLargeError(
            f"order {n - 1} matrix; modular elimination is exact below order {_MAX_ORDER}"
        )
    return _determinant(_reduced_laplacian(g))


def _reduced_laplacian(g: Graph) -> np.ndarray:
    """The Laplacian without the row and column of vertex n-1.

    Built in int16, indices included, which holds every vertex and degree
    below ``_MAX_ORDER`` = 2**13 and keeps the build's temporaries small.
    """
    n = g.n
    rows = np.repeat(np.arange(n - 1, dtype=np.int16), g.degrees[:-1])
    cols = np.fromiter(chain.from_iterable(g.neighbors[:-1]), np.int16, len(rows))
    keep = cols < n - 1
    lap = np.zeros((n - 1, n - 1), dtype=np.int16)
    lap[rows[keep], cols[keep]] = -1
    np.fill_diagonal(lap, g.degrees[:-1])
    return lap


def degree_product(g: Graph) -> int:
    """Product of all vertex degrees, exactly."""
    return math.prod(g.degrees)


def kostochka_upper_bound_holds(g: Graph, count: int) -> bool:
    """Exact integer check that count * (n-1) <= degree product.

    ``count`` is the spanning-tree count of ``g`` (``count_spanning_trees``),
    passed in so callers that report it do not compute it twice.  A
    ``False`` on any connected graph signals an implementation bug, not a
    property of the graph.
    """
    if g.n < 2 or not g.is_connected():
        raise ValueError("bound check requires a connected graph on >= 2 vertices")
    return count * (g.n - 1) <= degree_product(g)


def find(parent: list[int], x: int) -> int:
    """Union-find root of ``x``, halving the path in ``parent`` on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def enumerate_spanning_trees(g: Graph, cap: int) -> list[SpanningTree]:
    """Every labeled spanning tree exactly once, via contraction/deletion.

    Raises CapExceededError as soon as more than ``cap`` trees are found,
    guarding harnesses against accidental exponential blowup.
    """
    n = g.n
    if n == 0 or not g.is_connected():
        return []
    edges = g.edges()
    out: list[tuple[tuple[int, int], ...]] = []

    def can_span(parents, idx, components):
        # Can the remaining edges still merge everything into one component?
        trial = parents[:]
        remaining = components
        for j in range(idx, len(edges)):
            u, v = edges[j]
            ru, rv = find(trial, u), find(trial, v)
            if ru != rv:
                trial[ru] = rv
                remaining -= 1
                if remaining == 1:
                    return True
        return remaining == 1

    # Depth-first over (union-find, next edge, chosen edges, components);
    # the drop branch is pushed last so it is explored first.
    stack = [(list(range(n)), 0, (), n)]
    while stack:
        parents, i, chosen, components = stack.pop()
        if components == 1:
            out.append(chosen)
            if len(out) > cap:
                raise CapExceededError(
                    f"more than {cap} spanning trees; raise the cap to enumerate"
                )
            continue
        while i < len(edges) and find(parents, edges[i][0]) == find(parents, edges[i][1]):
            i += 1
        if i == len(edges):
            continue
        u, v = edges[i]
        # Branch 2: contract edge i.
        merged = parents[:]
        merged[find(merged, u)] = find(merged, v)
        stack.append((merged, i + 1, chosen + (edges[i],), components - 1))
        # Branch 1: drop edge i (only if a spanning tree is still possible).
        if can_span(parents, i + 1, components):
            stack.append((parents, i + 1, chosen, components))
    return [SpanningTree.from_edges(g, t) for t in out]
