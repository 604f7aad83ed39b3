"""Canonical codes and degree-histogram keys of unlabeled trees.

This module builds codes only; it samples and counts nothing.  Codes are
nested-parenthesis byte strings rooted at the tree's center (the
lexicographically smaller encoding when there are two centers), so two
trees get equal codes exactly when they are isomorphic.  One kernel,
``code_from_parents``, computes them from a tree's parent array;
``code_from_neighbors`` turns adjacency lists into one first.
"""

from __future__ import annotations

from collections import Counter

from .graphs import connected


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
