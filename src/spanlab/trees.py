"""Spanning trees stored as adjacency views over a host graph."""

from __future__ import annotations

from .graphs import Graph, connected


class NotATreeError(ValueError):
    code = "NotATree"


class SpanningTree:
    """A spanning tree of a host Graph.

    Holds adjacency lists and a degree cache; never mutated after
    construction (reconfiguration returns a fresh tree that shares the
    rows it did not change).
    """

    __slots__ = ("graph", "neighbors", "degrees")

    def __init__(self, graph: Graph, neighbors: list[list[int]], degrees: list[int]):
        # Trusted constructor: samplers guarantee the invariants. Use
        # from_edges() for unchecked input.
        self.graph = graph
        self.neighbors = neighbors
        self.degrees = degrees

    @property
    def n(self) -> int:
        return self.graph.n

    @classmethod
    def from_edges(cls, graph: Graph, edges, validate: bool = True) -> "SpanningTree":
        n = graph.n
        nbrs: list[list[int]] = [[] for _ in range(n)]
        count = 0
        for u, v in edges:
            if validate and not graph.has_edge(u, v):
                raise NotATreeError(f"edge ({u},{v}) is not an edge of the host graph")
            nbrs[u].append(v)
            nbrs[v].append(u)
            count += 1
        tree = cls(graph, nbrs, [len(x) for x in nbrs])
        if validate and not (count == n - 1 and tree.is_spanning_tree()):
            raise NotATreeError(f"{count} edges on {n} vertices do not form a spanning tree")
        return tree

    @classmethod
    def from_parents(cls, graph: Graph, parent, root: int) -> "SpanningTree":
        """Build from a parent array: every vertex but ``root`` points at its parent."""
        n = graph.n
        nbrs: list[list[int]] = [[] for _ in range(n)]
        for v in range(n):
            if v == root:
                continue
            p = parent[v]
            nbrs[v].append(p)
            nbrs[p].append(v)
        return cls(graph, nbrs, [len(x) for x in nbrs])

    def is_spanning_tree(self) -> bool:
        """Full invariant check: n-1 host edges, connected, acyclic."""
        g = self.graph
        n = g.n
        m = sum(self.degrees)
        if m != 2 * (n - 1):
            return False
        for u in range(n):
            for v in self.neighbors[u]:
                if u < v and not g.has_edge(u, v):
                    return False
        return connected(self.neighbors)

    def edges(self) -> list[tuple[int, int]]:
        return [
            (u, v) for u in range(self.n) for v in self.neighbors[u] if u < v
        ]

    def edge_key(self) -> tuple[tuple[int, int], ...]:
        """Canonical labeled identity: the sorted edge tuple."""
        return tuple(sorted(self.edges()))

    def leaves(self) -> list[int]:
        degs = self.degrees
        return [v for v in range(self.n) if degs[v] == 1]

    def parent_of(self, v: int) -> int:
        """The unique tree neighbour of a leaf."""
        if self.degrees[v] != 1:
            raise ValueError(f"vertex {v} has tree degree {self.degrees[v]}, not a leaf")
        return self.neighbors[v][0]

    def __repr__(self):
        return f"SpanningTree(n={self.n})"
