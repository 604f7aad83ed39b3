"""Immutable simple undirected graphs, family generators, and text I/O.

Vertices are dense integer ids ``0..n-1``.  Adjacency lists are kept
sorted so that every seeded run iterates neighbours in the same order.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import islice

import numpy as np

from . import rng as rnglib


class GraphError(ValueError):
    """Invalid graph construction or generation input."""

    code = "GraphError"


class SelfLoopError(GraphError):
    code = "SelfLoop"


class DuplicateEdgeError(GraphError):
    code = "DuplicateEdge"


class VertexOutOfRangeError(GraphError):
    code = "VertexOutOfRange"


class InfeasibleSpecError(GraphError):
    code = "InfeasibleSpec"


class GenerationRetriesExhaustedError(GraphError):
    code = "GenerationRetriesExhausted"


class DisconnectedGraphError(GraphError):
    code = "DisconnectedGraph"


class Graph:
    """Simple undirected graph, stored as its sorted neighbour tuples only.

    Every edge is in both endpoints' tuples; ``build_graph`` is the checked
    way in.  Immutable, so safe to share read-only across parallel workers.
    """

    __slots__ = (
        "n", "m", "neighbors", "degrees", "_connected", "_high_degree", "_low_neighbors"
    )

    def __init__(self, n: int, neighbors: tuple[tuple[int, ...], ...]):
        self.n = n
        self.neighbors = neighbors
        self.degrees = tuple(map(len, neighbors))
        self.m = sum(self.degrees) // 2
        self._connected: bool | None = None
        self._high_degree: tuple[bool, ...] | None = None  # see reconfig.high_degree
        self._low_neighbors: tuple[tuple[int, ...], ...] | None = None  # reconfig.low_neighbors

    def __reduce__(self):
        # A pickle (one per pool task) carries the constructor's arguments,
        # not the caches: a copy recomputes those on first use.
        return Graph, (self.n, self.neighbors)

    def edges(self) -> list[tuple[int, int]]:
        """All edges as sorted (u, v) pairs with u < v."""
        return [(u, v) for u, nbrs in enumerate(self.neighbors) for v in nbrs if u < v]

    def has_edge(self, u: int, v: int) -> bool:
        if not 0 <= u < self.n:
            return False
        nbrs = self.neighbors[u]
        i = bisect_left(nbrs, v)
        return i < len(nbrs) and nbrs[i] == v

    def min_degree(self) -> int:
        return min(self.degrees) if self.n else 0

    def is_connected(self) -> bool:
        # Immutable graph: compute once, reuse (samplers check this per call).
        if self._connected is None:
            self._connected = connected(self.neighbors) is not None
        return self._connected

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


def connected(neighbors) -> list[int] | None:
    """Breadth-first search over adjacency lists on ``0..n-1``.

    Returns the search tree as a parent array rooted at 0 (``parent[0]``
    is 0), or None when the lists are disconnected or n = 0.
    """
    n = len(neighbors)
    if n == 0:
        return None
    parent = [-1] * n
    parent[0] = 0
    order = [0]
    for u in order:
        for v in neighbors[u]:
            if parent[v] < 0:
                parent[v] = u
                order.append(v)
    return parent if len(order) == n else None


def build_graph(edges, n: int) -> Graph:
    """Validate an edge list and build a Graph.

    Rejects self-loops, duplicate edges (in either orientation), and
    endpoints outside ``0..n-1``.  Valid input is checked on the sorted
    neighbour tuples alone: every fault leaves a negative or repeated
    neighbour there, or fails to index the lists.  Only then are the edges
    scanned one by one, so the error is the first faulty edge's.
    """
    if n < 0:
        raise VertexOutOfRangeError("vertex count must be non-negative")
    if not isinstance(edges, list):
        edges = list(edges)
    adj: list[list[int]] = [[] for _ in range(n)]
    try:
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
    except (IndexError, TypeError, ValueError):
        # Each edge before the one that failed added two entries.
        _raise_first_fault(islice(edges, sum(map(len, adj)) // 2 + 1), n)
        raise
    neighbors = tuple(tuple(sorted(nbrs)) for nbrs in adj)
    if any(len(set(nbrs)) < len(nbrs) or nbrs and nbrs[0] < 0 for nbrs in neighbors):
        _raise_first_fault(edges, n)
    return Graph(n, neighbors)


def _raise_first_fault(edges, n: int) -> None:
    """Raise the error of the first edge that is out of range, a self-loop
    or a repeat of an earlier edge."""
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


# ---------------------------------------------------------------------------
# Deterministic family constructors
# ---------------------------------------------------------------------------


def complete_graph(n: int) -> Graph:
    return build_graph([(u, v) for u in range(n) for v in range(u + 1, n)], n)


def _check_bipartite(a: int, b: int) -> None:
    if a < 1 or b < 1:
        raise InfeasibleSpecError("both bipartition sides need at least one vertex")


def complete_bipartite(a: int, b: int) -> Graph:
    """K_{a,b}: side A is 0..a-1, side B is a..a+b-1."""
    _check_bipartite(a, b)
    return build_graph([(u, a + v) for u in range(a) for v in range(b)], a + b)


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise InfeasibleSpecError("a cycle needs at least 3 vertices")
    return build_graph([(i, (i + 1) % n) for i in range(n)], n)


def path_graph(n: int) -> Graph:
    if n < 1:
        raise InfeasibleSpecError("a path needs at least 1 vertex")
    return build_graph([(i, i + 1) for i in range(n - 1)], n)


# ---------------------------------------------------------------------------
# Random generators
# ---------------------------------------------------------------------------


def _check_regular(d: int, n: int) -> None:
    if d < 0 or n < 1 or d >= n or (d * n) % 2 != 0:
        raise InfeasibleSpecError(f"no simple {d}-regular graph on {n} vertices")


def random_regular(d: int, n: int, rng, retries: int = 1000) -> Graph:
    """Random simple d-regular graph: configuration model, then edge switches.

    Stub pairing is repaired NetworkX-style (conflicting stubs go back in
    the pool); 100*m random double-edge switches mix the result.  The
    switch randomness is drawn whole, as one array of 2 * 100m pair
    indices and then one of 100m flip uniforms, and consumed block by
    block.  Exact uniformity over d-regular graphs is not required by
    anything built on top; connectivity is, so disconnected outcomes are
    regenerated.
    """
    _check_regular(d, n)
    for _ in range(retries):
        edges = _pair_stubs(d, n, rng)
        if edges is None:
            continue
        edges = _double_edge_switches(edges, rng)
        g = build_graph(sorted(edges), n)
        if g.is_connected():
            return g
    raise GenerationRetriesExhaustedError(
        f"no connected {d}-regular graph on {n} vertices after {retries} attempts"
    )


def _pair_stubs(d: int, n: int, rng) -> set[tuple[int, int]] | None:
    edges: set[tuple[int, int]] = set()
    stubs = list(range(n)) * d
    while stubs:
        rng.shuffle(stubs)
        leftover: list[int] = []
        it = iter(stubs)
        for s1, s2 in zip(it, it):
            if s1 > s2:
                s1, s2 = s2, s1
            if s1 != s2 and (s1, s2) not in edges:
                edges.add((s1, s2))
            else:
                leftover.append(s1)
                leftover.append(s2)
        if len(leftover) == len(stubs):
            # No progress is possible for this pairing; start over.
            return None
        stubs = leftover
    return edges


# Attempts per block of the switch loop: the drawn arrays become Python
# lists one block at a time, which reads fast without holding the whole
# draw as Python ints.
_SWITCH_BLOCK = 1 << 16


def _double_edge_switches(edges: set[tuple[int, int]], rng) -> set[tuple[int, int]]:
    edge_list = list(edges)
    m = len(edge_list)
    if m < 2:
        return edges
    attempts = 100 * m
    pair_idx = rng.integers(0, m, size=2 * attempts)
    flips = rng.random(attempts) < 0.5
    remove = edges.remove
    add = edges.add
    for start in range(0, attempts, _SWITCH_BLOCK):
        stop = min(start + _SWITCH_BLOCK, attempts)
        pairs = iter(pair_idx[2 * start : 2 * stop].tolist())
        for i, j, flip in zip(pairs, pairs, flips[start:stop].tolist()):
            if i == j:
                continue
            old1 = edge_list[i]
            old2 = edge_list[j]
            a, b = old1
            if flip:
                e, c = old2
            else:
                c, e = old2
            # Rewire {a,b},{c,e} -> {a,c},{b,e} when both new edges are fresh.
            if a == c or a == e or b == c or b == e:
                continue
            new1 = (a, c) if a < c else (c, a)
            if new1 in edges:
                continue
            new2 = (b, e) if b < e else (e, b)
            if new2 in edges:
                continue
            remove(old1)
            remove(old2)
            add(new1)
            add(new2)
            edge_list[i] = new1
            edge_list[j] = new2
    return edges


def _check_gnp(n: int, p: float, d: int) -> None:
    """Raise InfeasibleSpecError unless some draw of G(n,p) is connected with
    min degree >= d: that needs d < n, and an edge when n >= 2."""
    if n < 1 or not 0.0 <= p <= 1.0 or d < 0:
        raise InfeasibleSpecError(f"bad G(n,p) parameters n={n}, p={p}, d={d}")
    if d >= n:
        raise InfeasibleSpecError(f"no graph on {n} vertices has min degree {d}")
    if p == 0 and n >= 2:
        raise InfeasibleSpecError(f"G({n},0) has no edge, so it is never connected")


def gnp_min_degree(n: int, p: float, d: int, rng, retries: int = 1000) -> Graph:
    """G(n,p) resampled until connected with min degree >= d.

    Bounded retries keep experiment inputs guaranteed-valid rather than
    silently conditioning on rare events.
    """
    _check_gnp(n, p, d)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for _ in range(retries):
        mask = rng.random(len(pairs)) < p
        edges = [pairs[i] for i in np.flatnonzero(mask)]
        g = build_graph(edges, n)
        if g.min_degree() >= d and g.is_connected():
            return g
    raise GenerationRetriesExhaustedError(
        f"G({n},{p}) with min degree {d} not hit in {retries} attempts"
    )


# ---------------------------------------------------------------------------
# Graph specs (CLI / experiment input descriptions)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GraphSpec:
    """A named graph family plus parameters.

    Families: ``complete:n``, ``bipartite:a,b``, ``regular:d,n``,
    ``gnp:n,p,d`` (min-degree-conditioned G(n,p)).
    """

    family: str
    params: tuple

    @classmethod
    def parse(cls, text: str) -> "GraphSpec":
        family, _, rest = text.partition(":")
        family = family.strip().lower()
        try:
            if family == "complete":
                (n,) = _ints(rest, 1)
                if n < 1:
                    raise InfeasibleSpecError("complete:n needs n >= 1")
                return cls("complete", (n,))
            if family == "bipartite":
                a, b = _ints(rest, 2)
                _check_bipartite(a, b)
                return cls("bipartite", (a, b))
            if family == "regular":
                d, n = _ints(rest, 2)
                _check_regular(d, n)
                return cls("regular", (d, n))
            if family == "gnp":
                parts = [s.strip() for s in rest.split(",")]
                if len(parts) != 3:
                    raise ValueError
                n, p, d = int(parts[0]), float(parts[1]), int(parts[2])
                _check_gnp(n, p, d)
                return cls("gnp", (n, p, d))
        except InfeasibleSpecError:
            raise
        except ValueError:
            pass
        raise InfeasibleSpecError(
            f"cannot parse graph spec {text!r}; expected "
            "complete:n | bipartite:a,b | regular:d,n | gnp:n,p,d"
        )

    def describe(self) -> str:
        return f"{self.family}:{','.join(str(p) for p in self.params)}"


def _ints(text: str, k: int) -> list[int]:
    parts = [int(s.strip()) for s in text.split(",")]
    if len(parts) != k:
        raise ValueError
    return parts


def generate(spec: GraphSpec, seed: int) -> Graph:
    """Build the graph described by ``spec``, deterministically in ``seed``."""
    if spec.family == "complete":
        return complete_graph(*spec.params)
    if spec.family == "bipartite":
        return complete_bipartite(*spec.params)
    rng = rnglib.stream(seed, rnglib.GENERATE)
    if spec.family == "regular":
        d, n = spec.params
        return random_regular(d, n, rng)
    if spec.family == "gnp":
        n, p, d = spec.params
        return gnp_min_degree(n, p, d, rng)
    raise InfeasibleSpecError(f"unknown graph family {spec.family!r}")


# ---------------------------------------------------------------------------
# Text file format: first line "n m", then m lines "u v"; '#' comments.
# ---------------------------------------------------------------------------


def read_graph_file(path) -> Graph:
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = [ln for raw in fh if (ln := raw.strip()) and ln[0] != "#"]
    except (OSError, UnicodeDecodeError) as exc:
        raise GraphError(f"cannot read graph file {path}: {exc}") from exc
    if not lines:
        raise GraphError(f"{path}: empty graph file")
    try:
        n, m = map(int, lines[0].split())
    except ValueError:
        raise GraphError(f"{path}: header must be 'n m'") from None
    if len(lines) - 1 != m:
        raise GraphError(f"{path}: expected {m} edge lines, found {len(lines) - 1}")
    if n > 2 * m + 1:
        # Refused before any per-vertex allocation: a header alone is cheap.
        raise DisconnectedGraphError(
            f"{path}: {n} vertices but only {m} edges, so at least two are isolated"
        )
    edges = []
    append = edges.append
    try:
        for ln in islice(lines, 1, None):
            u, v = ln.split()
            append((int(u), int(v)))
    except ValueError:
        raise GraphError(f"{path}: bad edge line {ln!r}") from None
    del lines  # freed before the adjacency lists are built: a lower peak
    return build_graph(edges, n)


def write_graph_file(g: Graph, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{g.n} {g.m}\n")
        for u, v in g.edges():
            fh.write(f"{u} {v}\n")
