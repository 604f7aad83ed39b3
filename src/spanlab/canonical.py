"""Canonical codes and degree statistics for unlabeled trees.

Codes are nested-parenthesis byte strings rooted at the tree's center
(the lexicographically smaller encoding when there are two centers), so
two trees get equal codes exactly when they are isomorphic.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .exact import CapExceededError, count_spanning_trees, enumerate_spanning_trees
from .graphs import Graph
from .sampling import sample_wilson
from .trees import tree_neighbors
from . import rng as rnglib


def canonical_code(edges, n: int) -> bytes:
    """Order-invariant encoding of a tree given as an edge list."""
    return code_from_neighbors(tree_neighbors(list(edges), n)[0])


def code_from_neighbors(nbrs) -> bytes:
    """AHU encoding rooted at the tree center; input is trusted to be a tree.

    One pass: stripping leaves layer by layer reaches the center, and a
    vertex's children are exactly its neighbours stripped before it, so
    each vertex's code is built as it is stripped and handed to the one
    neighbour still left.  ``b"()"`` sorts after every other code, so
    leaf children are only counted and go last.  With two centers each
    half is built once; the whole tree rooted at either center is that
    center's half with the other half added as a child, and the smaller
    of the two encodings wins.
    """
    n = len(nbrs)
    if n < 3:
        return (b"", b"()", b"(())")[n]
    deg = list(map(len, nbrs))
    leaf_kids = [0] * n
    kids: list[list[bytes] | None] = [None] * n  # codes of non-leaf children
    leaves = [u for u in range(n) if deg[u] == 1]
    layer = []
    for u in leaves:
        deg[u] = 0
        p = nbrs[u][0]
        leaf_kids[p] += 1
        d = deg[p]
        deg[p] = d - 1
        if d == 2:
            layer.append(p)
    remaining = n - len(leaves)
    while len(layer) < remaining:
        remaining -= len(layer)
        nxt = []
        for u in layer:
            deg[u] = 0
            code = _wrap(kids[u], leaf_kids[u])
            for p in nbrs[u]:
                d = deg[p]
                if d:
                    deg[p] = d - 1
                    if d == 2:
                        nxt.append(p)
                    ks = kids[p]
                    if ks is None:
                        kids[p] = [code]
                    else:
                        ks.append(code)
                    break
        layer = nxt
    if len(layer) == 1:
        c = layer[0]
        return _wrap(kids[c], leaf_kids[c])
    a, b = layer
    half_a = _wrap(kids[a], leaf_kids[a])
    half_b = _wrap(kids[b], leaf_kids[b])
    return min(
        _wrap((kids[a] or []) + [half_b], leaf_kids[a]),
        _wrap((kids[b] or []) + [half_a], leaf_kids[b]),
    )


def _wrap(kids, leaf_kids: int) -> bytes:
    """Code of a vertex from its non-leaf child codes and leaf-child count."""
    if kids is None:
        return b"(" + b"()" * leaf_kids + b")"
    kids.sort()
    return b"(" + b"".join(kids) + b"()" * leaf_kids + b")"


def histogram_key(degrees) -> tuple[tuple[int, int], ...]:
    """Hashable digest of a degree histogram."""
    return tuple(sorted(Counter(degrees).items()))


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
        trees = enumerate_spanning_trees(g, budget)
        codes = {code_from_neighbors(t.neighbors) for t in trees}
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
        seen = Counter(
            code_from_neighbors(sample_wilson(g, rnglib.stream(master, rnglib.TREE, t)).neighbors)
            for t in range(budget)
        )
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
