"""Canonical codes and degree statistics for unlabeled trees.

Codes are nested-parenthesis byte strings rooted at the tree's center
(the lexicographically smaller encoding when there are two centers), so
two trees get equal codes exactly when they are isomorphic.  One kernel,
``code_from_parents``, computes them from a tree's parent array; edge
lists and adjacency lists are turned into a parent array first.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .exact import CapExceededError, count_spanning_trees, enumerate_spanning_trees
from .graphs import Graph, connected
from .sampling import sample_wilson
from .trees import tree_neighbors
from . import rng as rnglib


def canonical_code(edges, n: int) -> bytes:
    """Order-invariant encoding of a tree given as an edge list."""
    nbrs, parent = tree_neighbors(list(edges), n)
    return code_from_parents(parent, 0, list(map(len, nbrs)))


def code_from_neighbors(nbrs) -> bytes:
    """``code_from_parents`` of a tree given as adjacency lists (trusted)."""
    parent = connected(nbrs) or []  # None only when n = 0
    return code_from_parents(parent, 0, list(map(len, nbrs)))


def code_from_parents(parent, root: int, degrees) -> bytes:
    """AHU encoding rooted at the tree center; input is trusted to be a tree.

    ``parent[v]`` is v's tree neighbour toward ``root`` for every v but the
    root (``parent[root]`` is never read), and ``degrees`` holds the tree
    degrees.  Any root will do, a leaf included; neither list is changed.

    One pass: stripping leaves layer by layer reaches the center, and a
    vertex's children are exactly its neighbours stripped before it, so
    each vertex's code is built as it is stripped and handed to the one
    neighbour still left.  A leaf other than the root hangs on its parent
    entry.  Every inner vertex keeps the XOR of its inner neighbours and
    takes each stripped one out of it, so once one neighbour is left the
    XOR names it.  ``b"()"`` sorts after every other code, so leaf
    children are only counted and go last.  With two centers each half is
    built once; the whole tree rooted at either center is that center's
    half with the other half added as a child, and the smaller of the two
    encodings wins.
    """
    n = len(parent)
    if n < 3:
        return (b"", b"()", b"(())")[n]
    link = [0] * n  # XOR of the inner neighbours not stripped yet
    leaves = []
    for v, d in enumerate(degrees):
        if d == 1:
            leaves.append(v)
        elif v != root:
            p = parent[v]
            link[v] ^= p
            link[p] ^= v
    if degrees[root] == 1:
        # The root's one neighbour is its child, which holds the root in
        # its XOR; every other leaf hangs on its parent entry.
        child = link[root]
        link[child] ^= root
        hang = Counter(parent[v] for v in leaves if v != root)
        hang[child] += 1
    else:
        hang = Counter(map(parent.__getitem__, leaves))
    leaf_kids = [0] * n
    deg = list(degrees)  # neighbours not stripped yet
    layer = []
    for p, k in hang.items():
        leaf_kids[p] = k
        d = deg[p] - k
        deg[p] = d
        if d <= 1:
            layer.append(p)
    kids: list[list[bytes] | None] = [None] * n  # codes of inner children
    remaining = n - len(leaves)
    while len(layer) < remaining:
        remaining -= len(layer)
        nxt = []
        for u in layer:
            code = _wrap(kids[u], leaf_kids[u])
            p = link[u]
            link[p] ^= u
            ks = kids[p]
            if ks is None:
                kids[p] = [code]
            else:
                ks.append(code)
            d = deg[p] - 1
            deg[p] = d
            if d == 1:
                nxt.append(p)
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
    """Code of a vertex from its inner child codes and leaf-child count."""
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
        codes = {code_from_parents(t.parent, t.root, t.degrees) for t in trees}
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
        trees = (sample_wilson(g, rnglib.stream(master, rnglib.TREE, t)) for t in range(budget))
        seen = Counter(code_from_parents(t.parent, t.root, t.degrees) for t in trees)
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
