"""Spanning trees stored as rooted parent arrays over a host graph."""

from __future__ import annotations

from .graphs import DomainError, Graph, connected


class NotATreeError(DomainError, ValueError):
    code = "NotATree"


def tree_neighbors(edges: list, n: int) -> tuple[list[list[int]], list[int]]:
    """Adjacency lists and a parent array rooted at 0 of a tree's edges.

    Raises NotATreeError unless the edges form a tree on ``0..n-1``."""
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n) or u == v:
            raise NotATreeError(f"bad tree edge ({u},{v})")
        nbrs[u].append(v)
        nbrs[v].append(u)
    parent = connected(nbrs)
    if len(edges) != n - 1 or parent is None:
        raise NotATreeError(f"{len(edges)} edges on {n} vertices do not form a tree")
    return nbrs, parent


def parent_degrees(parent, root: int) -> list[int]:
    """Tree degrees of a parent array in which all but ``root`` point at
    their parent (``parent[root]`` is counted and taken back out, so any
    vertex there will do)."""
    degs = [1] * len(parent)
    for p in parent:
        degs[p] += 1
    degs[root] -= 1
    degs[parent[root]] -= 1
    return degs


class SpanningTree:
    """A spanning tree of a host Graph, as a rooted parent array.

    ``parent[v]`` is v's tree neighbour toward ``root``, for every v but
    the root; ``degrees`` holds the tree degrees.  The root is never a
    leaf unless n = 2, where ``parent[root]`` is the other vertex, so the
    one tree neighbour of every leaf is its ``parent`` entry.  Neither
    edges nor neighbour lists are stored; ``edges()`` builds the edge list
    on demand.  A tree is never mutated after construction
    (reconfiguration returns a fresh one).
    """

    __slots__ = ("graph", "parent", "root", "degrees")

    def __init__(self, graph: Graph, parent: list[int], root: int, degrees: list[int]):
        # Trusted constructor: samplers guarantee the invariants, and the
        # tree takes both lists over. Use from_edges() for outside input.
        if degrees[root] == 1:
            # A leaf root hands the root role to its one child.
            parent[root] = -1
            child = parent.index(root)
            parent[root] = child
            root = child
        self.graph = graph
        self.parent = parent
        self.degrees = degrees
        self.root = root

    @classmethod
    def from_edges(cls, graph: Graph, edges) -> "SpanningTree":
        """The checked constructor: NotATreeError unless ``edges`` are
        edges of ``graph`` that form a spanning tree of it."""
        edges = list(edges)
        nbrs, parent = tree_neighbors(edges, graph.n)
        for u, v in edges:
            if not graph.has_edge(u, v):
                raise NotATreeError(f"edge ({u},{v}) is not an edge of the host graph")
        return cls(graph, parent, 0, list(map(len, nbrs)))

    @classmethod
    def from_parents(cls, graph: Graph, parent, root: int) -> "SpanningTree":
        """Build from a parent array (taken over): all but ``root`` point at their parent."""
        return cls(graph, parent, root, parent_degrees(parent, root))

    def is_spanning_tree(self) -> bool:
        """Full invariant check: the edges pass from_edges, the degrees match."""
        try:
            return SpanningTree.from_edges(self.graph, self.edges()).degrees == self.degrees
        except NotATreeError:
            return False

    def edges(self) -> list[tuple[int, int]]:
        """The n-1 tree edges as sorted (u, v) pairs with u < v."""
        root = self.root
        return sorted(
            (v, p) if v < p else (p, v) for v, p in enumerate(self.parent) if v != root
        )

    def edge_key(self) -> tuple[tuple[int, int], ...]:
        """Canonical labeled identity: the sorted edge tuple."""
        return tuple(self.edges())

    def leaves(self) -> list[int]:
        degs = self.degrees
        return [v for v in range(len(degs)) if degs[v] == 1]

    def __repr__(self):
        return f"SpanningTree(n={self.graph.n})"
