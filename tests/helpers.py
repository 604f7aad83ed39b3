"""Independent oracles shared by the test modules.

Everything here deliberately avoids the library's own algorithms:
spanning trees are counted by scanning edge subsets or by Bareiss
elimination (the library counts by modular elimination), isomorphism is
checked by trying vertex permutations, canonical codes are built by
rooting the whole tree at each center in turn (the library builds them
in one leaf-stripping pass), edge switches read the drawn numpy arrays
one element per attempt (the library converts them block by block),
graphs are validated edge by edge against a set of the edges seen (the
library checks sorted neighbour tuples), bootstrap slopes are fitted one
column at a time (the library fits every column in one call), streams are seeded through ``SeedSequence`` itself
(the library reproduces its hash in Python ints), subsets and degree
histograms are built one element at a time (the library builds them in
C-level calls), and random trees come from uniform parent-sequence
decoding.  A whole pipeline trial is rebuilt the way it was first
written: Wilson walks retraced after every walk with floats read one at
a time, selection from n-long may-parent lists on both branches, and
codes from neighbour lists (the library walks once, reads a per-graph
table of low-degree neighbours, and codes the parent array).  The eager
tally codes every trial's tree and counts all rows in one pass (the
library codes a tree only when its degree histogram can collide).
"""

from __future__ import annotations

import heapq
from collections import Counter
from itertools import combinations, permutations

import numpy as np
from numpy.random import PCG64, Generator, SeedSequence

from spanlab import (
    HIGH_BRANCH,
    LOW_BRANCH,
    Graph,
    SpanningTree,
    StrategyOutcome,
    bareiss_determinant,
    build_graph,
    code_from_parents,
    complete_bipartite,
    histogram_key,
    pipeline_reconfigured_tree,
)
from spanlab import experiments
from spanlab import rng as rnglib
from spanlab.graphs import DuplicateEdgeError, SelfLoopError, VertexOutOfRangeError


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


def reference_parent_code(parent, root: int) -> bytes:
    """``reference_code`` of the tree in which all but ``root`` point at
    their parent."""
    return reference_code(_adjacency(parent, root))


def tree_adjacency(tree: SpanningTree) -> list[list[int]]:
    """Adjacency lists of a spanning tree, read off its parent array."""
    return _adjacency(tree.parent, tree.root)


def _adjacency(parent, root: int) -> list[list[int]]:
    nbrs: list[list[int]] = [[] for _ in parent]
    for v, p in enumerate(parent):
        if v != root:
            nbrs[v].append(p)
            nbrs[p].append(v)
    return nbrs


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
    return SpanningTree.from_edges(g, edges)


def reference_wilson(g: Graph, rng) -> SpanningTree:
    """Wilson's loop-erased walks: every walk steps one float at a time from
    its start vertex until it hits the tree, then is retraced."""
    n = g.n
    nxt = [0] * n
    in_tree = [False] * n
    in_tree[0] = True
    for i in range(n):
        u = i
        while not in_tree[u]:
            nbrs = g.neighbors[u]
            nxt[u] = nbrs[int(rng.random() * len(nbrs))]
            u = nxt[u]
        u = i
        while not in_tree[u]:
            in_tree[u] = True
            u = nxt[u]
    return SpanningTree.from_parents(g, nxt, 0)


def reference_may_parent(g: Graph, tree: SpanningTree, subset, branch: str) -> list[bool]:
    """Per vertex, whether it may parent a leaf selected on ``branch``: it is
    outside the subset, or has deg^3 > n (low branch), or keeps two tree
    neighbours outside the subset (high branch)."""
    n = g.n
    if branch == LOW_BRANCH:
        return [u not in subset or g.degrees[u] ** 3 > n for u in range(n)]
    outside = [0] * n
    for u, w in tree.edges():
        if (u in subset) != (w in subset):
            outside[u if u in subset else w] += 1
    return [u not in subset or outside[u] >= 2 for u in range(n)]


def reference_select_leaves(g: Graph, tree: SpanningTree, subset) -> StrategyOutcome:
    """The selection rule, each branch read off its may-parent list."""
    n = g.n
    inside = [v for v in tree.leaves() if v in subset]

    def pick(leaves, branch, share):
        ok = reference_may_parent(g, tree, subset, branch)
        selection = {}
        for v in leaves:
            cands = tuple(u for u in g.neighbors[v] if ok[u])
            if ok[tree.parent[v]] and share * len(cands) >= g.degrees[v]:
                selection[v] = cands
        return selection

    low = pick([v for v in inside if g.degrees[v] ** 3 <= n], LOW_BRANCH, 2)
    if 256 * len(low) >= n:
        return StrategyOutcome(LOW_BRANCH, low)
    high = pick([v for v in inside if g.degrees[v] ** 3 > n], HIGH_BRANCH, 4)
    return StrategyOutcome(HIGH_BRANCH, high)


def reference_trial(g: Graph, master: int, t: int) -> tuple:
    """Trial t of the pipeline as a row (histogram, code, branch), built
    from the oracles above."""
    tree = reference_wilson(g, reference_stream(master, rnglib.TREE, t))
    subset = reference_vertex_subset(g.n, reference_stream(master, rnglib.SUBSET, t))
    outcome = reference_select_leaves(g, tree, subset)
    rng = reference_stream(master, rnglib.RECONF, t)
    redone = reference_reconfigure(g, tree, outcome.selection, rng)
    nbrs: list[list[int]] = [[] for _ in range(g.n)]
    for u, w in redone.edges():
        nbrs[u].append(w)
        nbrs[w].append(u)
    return reference_histogram_key(redone.degrees), reference_code(nbrs), outcome.branch


def eager_pipeline_collision(
    g: Graph, trials: int, seed: int, keep_digests: bool = False
) -> experiments.PipelineCollisionReport:
    """``pipeline_collision`` at master seed ``seed`` with every trial's tree
    coded, and the histogram, code and branch counters each filled in one
    pass over the rows in trial order."""
    rows = []
    for t in range(trials):
        redone, outcome = pipeline_reconfigured_tree(g, seed, t)
        code = code_from_parents(redone.parent, redone.root, redone.degrees)
        rows.append((histogram_key(redone.degrees), code, outcome.branch))
    counters = tuple(Counter(column) for column in zip(*rows))
    boots = [
        experiments._bootstrap(list(counter.values()), trials, seed, which)
        for which, counter in enumerate(counters[:2])
    ]
    return experiments.PipelineCollisionReport(
        seed=seed,
        trials=trials,
        branch_counts=dict(sorted(counters[2].items())),
        histograms=experiments._collision_report(counters[0], trials, boots[0]),
        codes=experiments._collision_report(counters[1], trials, boots[1]),
        digests=rows if keep_digests else None,
    )


def eager_scaling_reports(d: int, sizes, trials: int, master: int) -> list:
    """``eager_pipeline_collision`` of each size of ``scaling_experiment``."""
    return [
        eager_pipeline_collision(
            complete_bipartite(d, n - d),
            trials,
            int(rnglib.stream(master, rnglib.GENERATE, i).integers(0, 2**63)),
        )
        for i, n in enumerate(sizes)
    ]


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


def reference_build_graph(edges, n: int) -> Graph:
    """``build_graph`` checking each edge as it comes, against a set of the
    edges seen (the library checks the sorted neighbour tuples)."""
    if n < 0:
        raise VertexOutOfRangeError("vertex count must be non-negative")
    adj: list[list[int]] = [[] for _ in range(n)]
    seen: set[tuple[int, int]] = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise VertexOutOfRangeError(f"edge ({u},{v}) outside 0..{n - 1}")
        if u == v:
            raise SelfLoopError(f"self-loop at vertex {u}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise DuplicateEdgeError(f"duplicate edge ({key[0]},{key[1]})")
        seen.add(key)
        adj[u].append(v)
        adj[v].append(u)
    return Graph(n, tuple(tuple(sorted(nbrs)) for nbrs in adj))


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
