"""Independent oracles shared by the test modules.

Everything here deliberately avoids the library's own algorithms:
spanning trees are counted by scanning edge subsets or by Bareiss
elimination (the library counts by modular elimination), isomorphism is
checked by trying vertex permutations, canonical codes are built by
rooting the whole tree at each center in turn (the library builds them
in one leaf-stripping pass), edge switches read the drawn numpy arrays
one element per attempt (the library converts them block by block),
bootstrap slopes are fitted one column at a time (the library fits every
column in one call), streams are seeded through ``SeedSequence`` itself
(the library reproduces its hash in Python ints), subsets and degree
histograms are built one element at a time (the library builds them in
C-level calls), and random trees come from uniform parent-sequence
decoding.
"""

from __future__ import annotations

import heapq
from itertools import combinations, permutations

import numpy as np
from numpy.random import PCG64, Generator, SeedSequence

from spanlab import Graph, SpanningTree, bareiss_determinant, build_graph


def reference_stream(master: int, *path: int) -> Generator:
    """The PCG64 generator ``numpy.random.SeedSequence`` seeds for spawn-key
    ``path`` under ``master``."""
    return Generator(PCG64(SeedSequence(master, spawn_key=path)))


def reference_vertex_subset(n: int, rng) -> frozenset[int]:
    """Each vertex whose fair bit is set, read from the mask one at a time."""
    mask = rng.random(n) < 0.5
    return frozenset(int(v) for v in mask.nonzero()[0])


def reference_histogram_key(degrees) -> tuple[tuple[int, int], ...]:
    """Sorted (degree, count) pairs, counted in a dict loop."""
    hist: dict[int, int] = {}
    for d in degrees:
        hist[d] = hist.get(d, 0) + 1
    return tuple(sorted(hist.items()))


def bareiss_count(g: Graph) -> int:
    """Spanning trees of a connected graph: Bareiss on the reduced Laplacian."""
    n = g.n
    lap = [[0] * (n - 1) for _ in range(n - 1)]
    for u, v in g.edges():
        for a, b in ((u, v), (v, u)):
            if a < n - 1:
                lap[a][a] += 1
                if b < n - 1:
                    lap[a][b] = -1
    return bareiss_determinant(lap)


def reference_code(nbrs) -> bytes:
    """Center-rooted AHU code: root the whole tree at each center, keep the
    smaller encoding."""
    return min(_rooted_code(nbrs, c) for c in tree_centers(nbrs))


def tree_centers(nbrs) -> list[int]:
    """The 1 or 2 middle vertices left by repeatedly stripping leaves
    (a single center may be listed twice)."""
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


def reference_double_edge_switches(edges: set, rng) -> set:
    """Double-edge switches with per-element reads of the whole drawn arrays:
    2 * attempts pair indices, then one uniform per attempt for the flip."""
    edge_list = list(edges)
    m = len(edge_list)
    if m < 2:
        return edges
    attempts = 100 * m
    pair_idx = rng.integers(0, m, size=2 * attempts)
    flips = rng.random(attempts)
    for t in range(attempts):
        i = pair_idx[2 * t]
        j = pair_idx[2 * t + 1]
        if i == j:
            continue
        a, b = edge_list[i]
        c, e = edge_list[j]
        if flips[t] < 0.5:
            c, e = e, c
        # Rewire {a,b},{c,e} -> {a,c},{b,e} when both new edges are fresh.
        if a == c or a == e or b == c or b == e:
            continue
        new1 = (a, c) if a < c else (c, a)
        new2 = (b, e) if b < e else (e, b)
        if new1 in edges or new2 in edges:
            continue
        edges.remove(edge_list[i])
        edges.remove(edge_list[j])
        edges.add(new1)
        edges.add(new2)
        edge_list[i] = new1
        edge_list[j] = new2
    return edges


def reference_bootstrap_slopes(sizes, boots, floor: float) -> np.ndarray:
    """Log-log slope of sqrt(collision) against size, one polyfit per
    bootstrap column of ``boots`` (sizes x resamples), rates floored."""
    lx = np.log(np.asarray(sizes, dtype=float))
    slopes = np.empty(boots.shape[1])
    for b in range(boots.shape[1]):
        ly = 0.5 * np.log(np.maximum(boots[:, b], floor))
        slopes[b] = np.polyfit(lx, ly, 1)[0]
    return slopes


def reference_reconfigure(g: Graph, tree: SpanningTree, selection, rng) -> SpanningTree:
    """Leaf reconfiguration rebuilt from scratch: every unselected tree edge
    is kept, and each selected leaf hangs off a candidate drawn from the same
    uniform buffer as the library's patched version."""
    edges = [(u, w) for u, w in tree.edges() if u not in selection and w not in selection]
    if selection:
        buf = rng.random(len(selection)).tolist()
        for x, (v, cands) in zip(buf, selection.items()):
            edges.append((v, cands[int(x * len(cands))]))
    return SpanningTree.from_edges(g, edges, validate=False)


def brute_count_spanning_trees(g: Graph) -> int:
    """Count spanning trees by testing every (n-1)-edge subset."""
    n = g.n
    if n == 0:
        return 0
    if n == 1:
        return 1
    count = 0
    for subset in combinations(g.edges(), n - 1):
        if _is_tree(subset, n):
            count += 1
    return count


def brute_spanning_tree_edge_sets(g: Graph) -> set[tuple]:
    n = g.n
    out = set()
    for subset in combinations(g.edges(), n - 1):
        if _is_tree(subset, n):
            out.add(tuple(sorted(subset)))
    return out


def _is_tree(edges, n) -> bool:
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    merged = 0
    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
        merged += 1
    return merged == n - 1


def brute_isomorphic(edges_a, edges_b, n: int) -> bool:
    """Tree isomorphism by exhausting vertex permutations (bitmask adjacency)."""
    if len(edges_a) != len(edges_b):
        return False
    adj_b = [0] * n
    for u, v in edges_b:
        adj_b[u] |= 1 << v
        adj_b[v] |= 1 << u
    pairs = list(edges_a)
    for perm in permutations(range(n)):
        for u, v in pairs:
            if not adj_b[perm[u]] >> perm[v] & 1:
                break
        else:
            return True
    return False


def random_tree_edges(n: int, rng) -> list[tuple[int, int]]:
    """Uniform random labeled tree from a random parent sequence."""
    if n <= 2:
        return prufer_tree_edges(n, [])
    return prufer_tree_edges(n, [int(x) for x in rng.integers(0, n, size=n - 2)])


def prufer_tree_edges(n: int, seq) -> list[tuple[int, int]]:
    """The labeled tree on n vertices with Pruefer sequence ``seq`` (n - 2 entries)."""
    if n == 1:
        return []
    if n == 2:
        return [(0, 1)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    leaf_heap = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaf_heap)
    for v in seq:
        u = heapq.heappop(leaf_heap)
        edges.append((u, v) if u < v else (v, u))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaf_heap, v)
    u = heapq.heappop(leaf_heap)
    v = heapq.heappop(leaf_heap)
    edges.append((u, v) if u < v else (v, u))
    return edges


def random_connected_graph(n: int, rng, p: float = 0.5) -> Graph:
    """Rejection-sample a connected G(n,p); p defaults generously dense."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    while True:
        mask = rng.random(len(pairs)) < p
        edges = [pairs[i] for i in range(len(pairs)) if mask[i]]
        g = build_graph(edges, n)
        if g.is_connected():
            return g


def relabel_edges(edges, perm) -> list[tuple[int, int]]:
    out = []
    for u, v in edges:
        a, b = perm[u], perm[v]
        out.append((a, b) if a < b else (b, a))
    return out
