"""Uniform spanning-tree samplers and one-out-digraph statistics.

Three independent samplers (loop-erased walk, first-entry walk, one-out
rejection) produce exactly uniform spanning trees; keeping all three lets
distributional claims be cross-validated against sampler bias.  Each
builds its tree from a parent array: Wilson's successor array, the
first-entry edges, or the accepted one-out map itself.  Wilson's walks
read one uniform float per step, in a fixed order, whatever shortcut the
loop takes, so a given stream always gives the same tree.  On a regular
graph of degree d they read each step's neighbour index ``int(x * d)``
ready made: numpy multiplies and truncates a whole batch of the same
floats, so the walk and its tree do not change.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

import numpy as np

from .exact import CapExceededError, degree_product
from .graphs import DisconnectedGraphError, DomainError, Graph, connected
from .trees import SpanningTree

_CHUNK = 65536
_PIECE = 256


class AttemptsExhaustedError(DomainError, RuntimeError):
    """Rejection sampling ran out of attempts (acceptance rate too low)."""

    code = "AttemptsExhausted"


def _draws(rng, n: int, d: int | None = None):
    """Endless iterator of uniform floats x from ``rng``; given ``d``, of
    the indices ``int(x * d)`` of the same floats (see ``_batches``).

    The batch sizes are part of ``results``: each sample throws away the
    unread rest of its last batch, and ``leaf_stats`` and
    ``uniformity_experiment`` draw sample after sample from one generator,
    so other sizes shift every later sample.  Only a stream used for one
    sample (a pipeline trial's) could take other sizes unchanged.
    """
    return chain.from_iterable(_batches(rng, 2 * n + 8, d))


def _batches(rng, chunk: int, d: int | None = None):
    """Lists of ``_PIECE`` draws cut from batches of ``rng.random(chunk)``.

    The first batch is near a sampler's typical draw count (2n + 8) and
    later ones grow fourfold up to ``_CHUNK``, so tiny graphs are not
    charged for a huge batch each sample.  Given ``d``, a batch becomes
    ``(batch * d).astype(np.intp)``: the same IEEE products as Python's
    ``x * d``, truncated toward zero as ``int`` does, so the indices equal
    ``int(x * d)``.  A piece becomes Python objects only when the sampler
    reaches it, so the unread rest of the last batch is never converted.
    """
    while True:
        batch = rng.random(chunk)
        if d is not None:
            batch = (batch * d).astype(np.intp)
        for start in range(0, chunk, _PIECE):
            yield batch[start : start + _PIECE].tolist()
        chunk = min(4 * chunk, _CHUNK)


def sample_wilson(g: Graph, rng) -> SpanningTree:
    """Uniform spanning tree via loop-erased random walks to a growing tree.

    Each walk starts with its first step out of the start vertex; when that
    step lands in the tree, the vertex joins it on that one draw, with no
    walk to retrace.  A regular graph takes a loop of its own that reads
    ready-made neighbour indices; it makes the same steps.
    """
    if not g.is_connected():
        raise DisconnectedGraphError("sampler requires a connected graph")
    n = g.n
    adj = g.neighbors
    nxt = [0] * n
    in_tree = bytearray(n)
    in_tree[0] = 1
    if g.common_degree is not None:
        pick = _draws(rng, n, g.common_degree).__next__
        for i in range(n):
            if in_tree[i]:
                continue
            u = nxt[i] = adj[i][pick()]
            if in_tree[u]:
                in_tree[i] = 1
                continue
            while not in_tree[u]:
                v = adj[u][pick()]
                nxt[u] = v
                u = v
            u = i
            while not in_tree[u]:
                in_tree[u] = 1
                u = nxt[u]
        return SpanningTree.from_parents(g, nxt, root=0)
    degs = g.degrees
    draw = _draws(rng, n).__next__
    for i in range(n):
        if in_tree[i]:
            continue
        u = nxt[i] = adj[i][int(draw() * degs[i])]
        if in_tree[u]:
            in_tree[i] = 1
            continue
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


def mutual_root(out) -> int | None:
    """The smaller end r of a one-out map's one mutual pair (out[out[r]] == r)
    when every pointer chain reaches that pair, else None.

    Vertex v has the arc v -> out[v].  The support is a spanning tree
    exactly when r exists, and then ``out`` is its parent array rooted at r.
    """
    mutual = [v for v, u in enumerate(out) if out[u] == v]
    if len(mutual) != 2:
        return None
    # One mutual pair leaves n - 1 support edges: a tree iff connected.
    nbrs: list[list[int]] = [[] for _ in out]
    for v, u in enumerate(out):
        nbrs[v].append(u)
        nbrs[u].append(v)
    return mutual[0] if connected(nbrs) is not None else None


def sample_rejection_one_out(
    g: Graph, rng, max_attempts: int = 10**6
) -> tuple[SpanningTree, int]:
    """Resample one-out digraphs until the support is a tree.

    The accepted support is an exactly uniform spanning tree, and the
    accepted map is its parent array (see ``mutual_root``); the attempt
    count exposes the acceptance rate (degree-product / tree-count effect).
    """
    if not g.is_connected():
        raise DisconnectedGraphError("sampler requires a connected graph")
    n = g.n
    if n == 1:
        return SpanningTree.from_edges(g, []), 1
    adj = g.neighbors
    draw = _draws(rng, n).__next__
    for attempt in range(1, max_attempts + 1):
        out = [nbrs[int(draw() * len(nbrs))] for nbrs in adj]
        r = mutual_root(out)
        if r is not None:
            return SpanningTree.from_parents(g, out, r), attempt
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
    counts: Counter[tuple] = Counter()
    idx = [0] * n
    while True:
        out = [adj[v][idx[v]] for v in range(n)]
        r = mutual_root(out)
        if r is not None:
            counts[SpanningTree.from_parents(g, out, r).edge_key()] += 1
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
    leaves = [len(draw(g, rng).leaves()) for _ in range(trials)]
    return LeafStatsReport(
        trials=trials,
        sampler=sampler,
        leaf_probabilities=probs,
        s_values=svals,
        expected_one_out_leaves=sum(probs, Fraction(0)),
        histogram=dict(sorted(Counter(leaves).items())),
        mean_leaves=sum(leaves) / trials,
        min_leaves=min(leaves),
        max_leaves=max(leaves),
    )


def _rejection_tree(g: Graph, rng) -> SpanningTree:
    return sample_rejection_one_out(g, rng)[0]


SAMPLERS = {
    "wilson": sample_wilson,
    "ab": sample_aldous_broder,
    "reject": _rejection_tree,
}
