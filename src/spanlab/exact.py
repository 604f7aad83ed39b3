"""Exact spanning-tree counting and enumeration.

The count is the determinant of the reduced Laplacian, evaluated by
multi-modular elimination + CRT, Hadamard-bounded: the determinant is
found modulo word-size primes in float64 arithmetic that stays exact, and
the residues are combined by Chinese remaindering until their modulus
exceeds twice Hadamard's bound, so results are bit-exact at any size.
Fraction-free (Bareiss) elimination is kept as an independent oracle.
Enumeration is contraction/deletion on an explicit stack with a cap guard.
"""

from __future__ import annotations

import numpy as np

from .graphs import Graph, find
from .trees import SpanningTree

# Elimination mod p runs in float64, whose integers are exact below 2**53.
# Every partial sum is an entry below p minus at most n products of two
# residues, so its magnitude is below n*p*p + p < 2**53 when p < 2**20 and
# n < 2**13.
_MAX_ORDER = 2**13


class CapExceededError(RuntimeError):
    code = "CapExceeded"


class MatrixTooLargeError(ValueError):
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


def _primes():
    """Primes between 2**19 and 2**20, largest first."""
    for p in range(2**20 - 1, 2**19, -2):
        if all(map(p.__mod__, range(3, 2**10, 2))):  # 2**10 > sqrt(p)
            yield p


def _determinant_mod(a: np.ndarray, p: int) -> int:
    """Determinant mod p of a float64 matrix of residues in [0, p); overwrites it.

    Left-looking (Crout) LU with L unit lower and U upper, both stored in
    ``a``.  Step k forms the pivot column of L and the pivot row of U, each
    by one matrix-vector product against factors already reduced into
    [0, p).  ``np.mod`` on float64 is fmod plus p for negative values, exact
    on integers; it gets p as a float, which numpy converts faster.
    """
    n = len(a)
    det = 1
    q = float(p)
    for k in range(n):
        col = a[k:, k] - a[k:, :k] @ a[:k, k]
        np.mod(col, q, out=col)
        pivot = int(col[0])
        if not pivot:
            nonzero = np.flatnonzero(col)
            if not nonzero.size:
                return 0
            r = int(nonzero[0])
            a[[k, k + r]] = a[[k + r, k]]
            col[[0, r]] = col[[r, 0]]
            pivot = int(col[0])
            det = -det
        det = det * pivot % p
        np.mod(col[1:] * float(pow(pivot, -1, p)), q, out=a[k + 1:, k])
        row = a[k, k + 1:]
        row -= a[k, :k] @ a[:k, k + 1:]
        np.mod(row, q, out=row)
    return det


def _check_order(n: int) -> None:
    if n >= _MAX_ORDER:
        raise MatrixTooLargeError(
            f"order {n} matrix; modular elimination is exact below order {_MAX_ORDER}"
        )


def modular_determinant(rows) -> int:
    """Exact determinant of a square integer matrix, by elimination mod primes.

    Residues modulo primes below 2**20 are combined by Chinese remaindering
    until their product M exceeds 2H, where H, the product of the row
    2-norms (Hadamard's bound), bounds |det|.  The residue in (-M/2, M/2)
    is then the determinant itself.  Raises MatrixTooLargeError from order
    2**13 on, where the float64 elimination would stop being exact.
    """
    n = len(rows)
    if n == 0:
        return 1
    _check_order(n)
    try:
        a = np.array(rows, dtype=np.int64)
    except OverflowError:
        a = np.array(rows, dtype=object)
    if a.shape != (n, n):
        raise ValueError(f"need a square matrix, got shape {a.shape}")
    h2 = 1  # H**2, exactly
    for row in a.tolist():
        h2 *= sum(x * x for x in row)
    det, modulus = 0, 1
    primes = _primes()
    while modulus * modulus <= 4 * h2:
        p = next(primes, None)
        if p is None:
            raise MatrixTooLargeError("Hadamard bound exceeds the product of the primes")
        r = _determinant_mod(np.mod(a, p).astype(np.float64), p)
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
    _check_order(n - 1)  # before allocating the (n-1)^2 matrix
    # Reduced Laplacian: drop row/column of vertex n-1.
    lap = np.diag(np.array(g.degrees[:-1], dtype=np.int64))
    for u in range(n - 1):
        lap[u, [v for v in g.neighbors[u] if v < n - 1]] = -1
    return modular_determinant(lap)


def degree_product(g: Graph) -> int:
    """Product of all vertex degrees, exactly."""
    out = 1
    for d in g.degrees:
        out *= d
    return out


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
    return [SpanningTree.from_edges(g, t, validate=False) for t in out]
