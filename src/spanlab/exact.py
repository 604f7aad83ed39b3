"""Exact spanning-tree counting and enumeration over arbitrary-precision ints.

The count is the determinant of the reduced Laplacian, evaluated with
fraction-free (Bareiss) elimination so results are bit-exact at any size.
Enumeration is recursive contraction/deletion with a cap guard.
"""

from __future__ import annotations

from .graphs import Graph, find
from .trees import SpanningTree


class CapExceededError(RuntimeError):
    code = "CapExceeded"


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


def count_spanning_trees(g: Graph) -> int:
    """Exact number of labeled spanning trees; 0 for disconnected graphs."""
    if g.n == 0 or not g.is_connected():
        return 0
    n = g.n
    if n == 1:
        return 1
    # Reduced Laplacian: drop row/column of vertex n-1.
    lap = [[0] * (n - 1) for _ in range(n - 1)]
    for u in range(n - 1):
        lap[u][u] = g.degrees[u]
        for v in g.neighbors[u]:
            if v < n - 1:
                lap[u][v] = -1
    return bareiss_determinant(lap)


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
    if n == 1:
        return [SpanningTree.from_edges(g, [], validate=False)]
    edges = g.edges()
    out: list[tuple[tuple[int, int], ...]] = []
    parent = list(range(n))

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

    def rec(parents, idx, chosen, components):
        if components == 1:
            out.append(tuple(chosen))
            if len(out) > cap:
                raise CapExceededError(
                    f"more than {cap} spanning trees; raise the cap to enumerate"
                )
            return
        i = idx
        while i < len(edges):
            u, v = edges[i]
            if find(parents, u) != find(parents, v):
                break
            i += 1
        else:
            return
        u, v = edges[i]
        # Branch 1: drop edge i (only if a spanning tree is still possible).
        if can_span(parents, i + 1, components):
            rec(parents, i + 1, chosen, components)
        # Branch 2: contract edge i.
        merged = parents[:]
        merged[find(merged, u)] = find(merged, v)
        chosen.append(edges[i])
        rec(merged, i + 1, chosen, components - 1)
        chosen.pop()

    rec(parent, 0, [], n)
    return [SpanningTree.from_edges(g, t, validate=False) for t in out]
