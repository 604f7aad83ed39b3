"""Uniform spanning-tree samplers and one-out-digraph statistics.

Three independent samplers (loop-erased walk, first-entry walk, one-out
rejection) produce exactly uniform spanning trees; keeping all three lets
distributional claims be cross-validated against sampler bias.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from .exact import CapExceededError, degree_product
from .graphs import DisconnectedGraphError, Graph, find
from .trees import SpanningTree

_CHUNK = 65536


class AttemptsExhaustedError(RuntimeError):
    """Rejection sampling ran out of attempts (acceptance rate too low)."""

    code = "AttemptsExhausted"


def _draws(rng, n: int):
    """Endless iterator of uniform floats from ``rng``, drawn in batches.

    The first batch is near a sampler's typical draw count (2n + 8) and
    later ones grow fourfold up to ``_CHUNK``, so tiny graphs are not
    charged for a huge batch each sample.
    """
    return chain.from_iterable(_batches(rng, 2 * n + 8))


def _batches(rng, chunk: int):
    while True:
        yield rng.random(chunk).tolist()
        chunk = min(4 * chunk, _CHUNK)


def sample_wilson(g: Graph, rng) -> SpanningTree:
    """Uniform spanning tree via loop-erased random walks to a growing tree."""
    if not g.is_connected():
        raise DisconnectedGraphError("sampler requires a connected graph")
    n = g.n
    adj = g.neighbors
    degs = g.degrees
    draw = _draws(rng, n).__next__
    nxt = [0] * n
    in_tree = bytearray(n)
    in_tree[0] = 1
    for i in range(n):
        u = i
        while not in_tree[u]:
            # Overwriting nxt[u] on revisit erases loops in place.
            v = adj[u][int(draw() * degs[u])]
            nxt[u] = v
            u = v
        u = i
        while not in_tree[u]:
            in_tree[u] = 1
            u = nxt[u]
    return SpanningTree.from_parents(g, nxt, root=0)


def sample_aldous_broder(g: Graph, rng) -> SpanningTree:
    """Uniform spanning tree from the first-entry edges of a covering walk."""
    if not g.is_connected():
        raise DisconnectedGraphError("sampler requires a connected graph")
    n = g.n
    adj = g.neighbors
    draw = _draws(rng, n).__next__
    parent = [0] * n
    visited = bytearray(n)
    visited[0] = 1
    remaining = n - 1
    u = 0
    while remaining:
        nbrs = adj[u]
        v = nbrs[int(draw() * len(nbrs))]
        if not visited[v]:
            visited[v] = 1
            parent[v] = u
            remaining -= 1
        u = v
    return SpanningTree.from_parents(g, parent, root=0)


def tree_support(out) -> list[tuple[int, int]] | None:
    """Sorted undirected support of a one-out map (vertex v has the arc
    v -> out[v]), or None unless that support is a spanning tree."""
    n = len(out)
    seen = set()
    for v in range(n):
        u = out[v]
        seen.add((v, u) if v < u else (u, v))
    if len(seen) != n - 1:
        return None
    parent = list(range(n))
    for u, v in seen:
        ru, rv = find(parent, u), find(parent, v)
        if ru == rv:
            return None
        parent[ru] = rv
    return sorted(seen)


def sample_rejection_one_out(
    g: Graph, rng, max_attempts: int = 10**6
) -> tuple[SpanningTree, int]:
    """Resample one-out digraphs until the support is a tree.

    The accepted support is an exactly uniform spanning tree; the attempt
    count exposes the acceptance rate (degree-product / tree-count effect).
    """
    if not g.is_connected():
        raise DisconnectedGraphError("sampler requires a connected graph")
    n = g.n
    if n == 1:
        return SpanningTree.from_edges(g, [], validate=False), 1
    adj = g.neighbors
    draw = _draws(rng, n).__next__
    for attempt in range(1, max_attempts + 1):
        out = [0] * n
        for v in range(n):
            nbrs = adj[v]
            out[v] = nbrs[int(draw() * len(nbrs))]
        edges = tree_support(out)
        if edges is not None:
            return SpanningTree.from_edges(g, edges, validate=False), attempt
    raise AttemptsExhaustedError(
        f"no tree support in {max_attempts} one-out samples; "
        "acceptance probability is too low for this graph"
    )


def one_out_census(g: Graph, cap: int = 10**6) -> dict[tuple, int]:
    """Exhaustively enumerate all one-out digraphs, grouped by tree support.

    Returns {tree edge-tuple: number of digraphs whose support is that
    tree}.  The number of digraphs is the degree product; a cap guards
    against accidental exponential sweeps.
    """
    if g.n == 1:
        return {(): 1}  # the empty map, the only one on an isolated vertex
    total = degree_product(g)
    if total > cap:
        raise CapExceededError(f"{total} one-out digraphs exceed the cap of {cap}")
    n = g.n
    adj = g.neighbors
    degs = g.degrees
    counts: dict[tuple, int] = {}
    idx = [0] * n
    while True:
        edges = tree_support([adj[v][idx[v]] for v in range(n)])
        if edges is not None:
            key = tuple(edges)
            counts[key] = counts.get(key, 0) + 1
        # Odometer increment over the product of neighbour choices.
        v = 0
        while v < n:
            idx[v] += 1
            if idx[v] < degs[v]:
                break
            idx[v] = 0
            v += 1
        if v == n:
            return counts


# ---------------------------------------------------------------------------
# Leaf statistics
# ---------------------------------------------------------------------------


def neighbour_degree_sum(g: Graph, v: int) -> Fraction:
    """Sum of 1/degree over the neighbours of v (sums to n over all v)."""
    return sum((Fraction(1, g.degrees[u]) for u in g.neighbors[v]), Fraction(0))


def one_out_leaf_probability(g: Graph, v: int) -> Fraction:
    """Exact probability that v has in-degree 0 in a uniform one-out digraph.

    Each neighbour u independently avoids pointing at v with probability
    1 - 1/deg(u); the product is exact in rational arithmetic.
    """
    prob = Fraction(1)
    for u in g.neighbors[v]:
        prob *= 1 - Fraction(1, g.degrees[u])
    return prob


@dataclass
class LeafStatsReport:
    """Exact one-out leaf probabilities plus sampled tree leaf counts."""

    trials: int
    sampler: str
    leaf_probabilities: list[Fraction]
    s_values: list[Fraction]
    expected_one_out_leaves: Fraction  # sum of the exact probabilities
    histogram: dict[int, int]  # leaf count -> frequency over sampled trees
    mean_leaves: float
    min_leaves: int
    max_leaves: int


def leaf_stats(g: Graph, trials: int, sampler: str, rng) -> LeafStatsReport:
    """Exact per-vertex one-out leaf probabilities plus a sampled histogram."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    draw = SAMPLERS[sampler]
    probs = [one_out_leaf_probability(g, v) for v in range(g.n)]
    svals = [neighbour_degree_sum(g, v) for v in range(g.n)]
    hist: dict[int, int] = {}
    total = 0
    low = g.n
    high = 0
    for _ in range(trials):
        tree = draw(g, rng)
        k = len(tree.leaves())
        hist[k] = hist.get(k, 0) + 1
        total += k
        low = min(low, k)
        high = max(high, k)
    return LeafStatsReport(
        trials=trials,
        sampler=sampler,
        leaf_probabilities=probs,
        s_values=svals,
        expected_one_out_leaves=sum(probs, Fraction(0)),
        histogram=dict(sorted(hist.items())),
        mean_leaves=total / trials,
        min_leaves=low,
        max_leaves=high,
    )


def _rejection_tree(g: Graph, rng) -> SpanningTree:
    return sample_rejection_one_out(g, rng)[0]


SAMPLERS = {
    "wilson": sample_wilson,
    "ab": sample_aldous_broder,
    "reject": _rejection_tree,
}
