"""Canonical codes and degree statistics for unlabeled trees.

Codes are nested-parenthesis byte strings rooted at the tree's center
(the lexicographically smaller encoding when there are two centers), so
two trees get equal codes exactly when they are isomorphic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exact import CapExceededError, count_spanning_trees, enumerate_spanning_trees
from .graphs import Graph, connected
from .sampling import sample_wilson
from .trees import NotATreeError, SpanningTree
from . import rng as rnglib


@dataclass(frozen=True)
class CanonicalTreeCode:
    code: bytes
    n: int


def canonical_code(edges, n: int) -> CanonicalTreeCode:
    """Order-invariant encoding of a tree given as an edge list."""
    edges = list(edges)
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n) or u == v:
            raise NotATreeError(f"bad tree edge ({u},{v})")
        nbrs[u].append(v)
        nbrs[v].append(u)
    if len(edges) != n - 1 or not connected(nbrs):
        raise NotATreeError(f"{len(edges)} edges on {n} vertices do not form a tree")
    return CanonicalTreeCode(code_from_neighbors(nbrs), n)


def tree_code(tree: SpanningTree) -> CanonicalTreeCode:
    """Canonical code of a spanning tree (no revalidation)."""
    return CanonicalTreeCode(code_from_neighbors(tree.neighbors), tree.n)


def code_from_neighbors(nbrs) -> bytes:
    """AHU encoding rooted at the tree center; input is trusted to be a tree."""
    centers = _centers(nbrs)
    best = None
    for c in centers:
        code = _rooted_code(nbrs, c)
        if best is None or code < best:
            best = code
    return best


def _centers(nbrs) -> list[int]:
    """The 1 or 2 middle vertices left by repeatedly stripping leaves."""
    n = len(nbrs)
    if n <= 2:
        return list(range(n))
    deg = [len(x) for x in nbrs]
    layer = [v for v in range(n) if deg[v] <= 1]
    removed = len(layer)
    while removed < n:
        nxt = []
        for u in layer:
            deg[u] = 0
            for v in nbrs[u]:
                if deg[v] > 1:
                    deg[v] -= 1
                    if deg[v] == 1:
                        nxt.append(v)
                elif deg[v] == 1:
                    deg[v] = 0
                    nxt.append(v)
        removed += len(nxt)
        layer = nxt
    return layer


def _rooted_code(nbrs, root: int) -> bytes:
    """Iterative post-order composition: (sorted child codes) per vertex."""
    n = len(nbrs)
    parent = [-1] * n
    order = [root]
    parent[root] = root
    for u in order:
        for v in nbrs[u]:
            if parent[v] == -1:
                parent[v] = u
                order.append(v)
    parent[root] = -1
    codes: list[bytes | None] = [None] * n
    children: list[list[bytes]] = [[] for _ in range(n)]
    for u in reversed(order):
        kids = children[u]
        kids.sort()
        codes[u] = b"(" + b"".join(kids) + b")"
        p = parent[u]
        if p >= 0:
            children[p].append(codes[u])
    return codes[root]


def histogram_key(degrees) -> tuple[tuple[int, int], ...]:
    """Hashable digest of a degree histogram."""
    hist: dict[int, int] = {}
    for d in degrees:
        hist[d] = hist.get(d, 0) + 1
    return tuple(sorted(hist.items()))


@dataclass
class NonIsoCountReport:
    mode: str
    distinct: int
    total_spanning_trees: int | None  # exact mode only
    samples: int | None  # sampled mode only
    coverage: float  # Good-Turing estimate of observed probability mass
    unseen_mass: float


def count_non_isomorphic(
    g: Graph, mode: str, budget: int, seed: int | None = None
) -> NonIsoCountReport:
    """Number of distinct spanning-tree shapes of g.

    Exact mode canonicalizes every spanning tree (requires the count to
    fit the budget); sampled mode canonicalizes ``budget`` uniform samples
    and reports the distinct count (a lower bound) with a Good-Turing
    unseen-mass estimate.
    """
    if mode == "exact":
        total = count_spanning_trees(g)
        if total > budget:
            raise CapExceededError(
                f"{total} spanning trees exceed the exact-mode budget {budget}"
            )
        codes = {tree_code(t).code for t in enumerate_spanning_trees(g, budget)}
        return NonIsoCountReport(
            mode="exact",
            distinct=len(codes),
            total_spanning_trees=total,
            samples=None,
            coverage=1.0,
            unseen_mass=0.0,
        )
    if mode == "sampled":
        master = rnglib.resolve_seed(seed)
        seen: dict[bytes, int] = {}
        for t in range(budget):
            tree = sample_wilson(g, rnglib.stream(master, rnglib.TREE, t))
            code = tree_code(tree).code
            seen[code] = seen.get(code, 0) + 1
        singletons = sum(1 for c in seen.values() if c == 1)
        unseen = singletons / budget if budget else 1.0
        return NonIsoCountReport(
            mode="sampled",
            distinct=len(seen),
            total_spanning_trees=None,
            samples=budget,
            coverage=1.0 - unseen,
            unseen_mass=unseen,
        )
    raise ValueError(f"unknown mode {mode!r}; use 'exact' or 'sampled'")
