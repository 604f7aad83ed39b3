import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spanlab as sl
from spanlab import NotATreeError, SpanningTree
from spanlab import rng as rnglib

from helpers import random_tree_edges, tree_adjacency


def test_from_edges_valid():
    g = sl.complete_graph(4)
    t = SpanningTree.from_edges(g, [(0, 1), (1, 2), (2, 3)])
    assert t.is_spanning_tree()
    assert t.edges() == [(0, 1), (1, 2), (2, 3)]
    assert sorted(t.leaves()) == [0, 3]
    assert t.parent[0] == 1 and t.parent[3] == 2


def test_from_edges_rejects_cycles_and_wrong_sizes():
    g = sl.complete_graph(4)
    with pytest.raises(NotATreeError):
        SpanningTree.from_edges(g, [(0, 1), (1, 2), (0, 2)])  # cycle misses vertex 3
    with pytest.raises(NotATreeError):
        SpanningTree.from_edges(g, [(0, 1), (1, 2)])  # too few edges


def test_from_edges_rejects_foreign_edge():
    g = sl.cycle_graph(4)  # no chord (0,2)
    with pytest.raises(NotATreeError):
        SpanningTree.from_edges(g, [(0, 1), (0, 2), (2, 3)])


def test_from_parents_round_trip():
    g = sl.complete_graph(5)
    t = SpanningTree.from_parents(g, [0, 0, 1, 1, 3], root=0)
    assert t.is_spanning_tree()
    assert t.edge_key() == ((0, 1), (1, 2), (1, 3), (3, 4))


def test_leaf_root_hands_over_to_its_child():
    g = sl.complete_graph(4)
    t = SpanningTree.from_parents(g, [0, 0, 1, 1], root=0)  # 0 hangs on 1
    assert t.root == 1 and t.degrees[0] == 1 and t.parent[0] == 1
    assert t.edge_key() == ((0, 1), (1, 2), (1, 3))
    pair = SpanningTree.from_parents(sl.complete_graph(2), [0, 0], root=0)
    assert pair.degrees == [1, 1] and pair.parent[0] == 1 and pair.parent[1] == 0


def _orient(edges, n: int, root: int) -> list[int]:
    """Parent array of the tree ``edges`` rooted at ``root``, by repeated
    sweeps over the edges not yet oriented."""
    parent = [None] * n
    parent[root] = root
    pending = list(edges)
    while pending:
        rest = []
        for u, v in pending:
            if parent[u] is not None:
                parent[v] = u
            elif parent[v] is not None:
                parent[u] = v
            else:
                rest.append((u, v))
        pending = rest
    return parent


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12), st.integers(0, 2**32 - 1), st.integers(0, 11))
@example(2, 0, 0)
@example(3, 0, 0)
def test_from_edges_and_from_parents_agree(n, seed, root):
    rng = np.random.default_rng(seed)
    edges = random_tree_edges(n, rng)
    root %= n
    g = sl.complete_graph(n)
    shuffled = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
    rng.shuffle(shuffled)
    a = SpanningTree.from_edges(g, shuffled)
    b = SpanningTree.from_parents(g, _orient(edges, n, root), root)
    assert a.edge_key() == b.edge_key() == tuple(sorted(edges))
    assert a.degrees == b.degrees
    assert [set(x) for x in tree_adjacency(a)] == [set(x) for x in tree_adjacency(b)]
    assert a.leaves() == b.leaves()
    for v in a.leaves():
        p = a.parent[v]
        assert p == b.parent[v]
        assert ((v, p) if v < p else (p, v)) in edges
    assert a.is_spanning_tree() and b.is_spanning_tree()


def test_the_pipeline_move_builds_no_neighbour_lists():
    # regular:16,60 runs the high branch (16^3 > 60), K_{3,40} the low one.
    cases = [(sl.random_regular(16, 60, sl.stream(3)), sl.HIGH_BRANCH),
             (sl.complete_bipartite(3, 40), sl.LOW_BRANCH)]
    assert not hasattr(SpanningTree, "neighbors")
    for g, branch in cases:
        tree = sl.sample_wilson(g, sl.stream(4, rnglib.TREE, 0))
        subset = sl.sample_vertex_subset(g.n, sl.stream(4, rnglib.SUBSET, 0))
        outcome = sl.select_leaves(g, tree, subset)
        assert outcome.branch == branch and outcome.selection
        sl.instance_from_selection(g, tree, outcome.selection)
        moved = sl.reconfigure(g, tree, outcome.selection, sl.stream(4, rnglib.RECONF, 0))
        assert sl.histogram_key(moved.degrees)
