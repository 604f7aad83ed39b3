import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spanlab as sl
from spanlab import CapExceededError, NotATreeError, canonical
from spanlab.canonical import code_from_neighbors, code_from_parents
from spanlab.trees import tree_neighbors

from helpers import (
    brute_isomorphic,
    edge_list_code,
    prufer_tree_edges,
    random_tree_edges,
    reference_code,
    reference_histogram_key,
    relabel_edges,
    tree_adjacency,
    tree_centers,
)


def _neighbors(edges, n):
    nbrs = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    return nbrs


@st.composite
def pruefer_trees(draw):
    """Neighbour lists of a tree decoded from a random Pruefer sequence,
    every row in a random order."""
    n = draw(st.integers(1, 60))
    seq = draw(st.lists(st.integers(0, n - 1), min_size=max(n - 2, 0), max_size=max(n - 2, 0)))
    nbrs = _neighbors(prufer_tree_edges(n, seq), n)
    shuffle = draw(st.randoms(use_true_random=False))
    for row in nbrs:
        shuffle.shuffle(row)
    return nbrs


@settings(max_examples=400, deadline=None)
@given(pruefer_trees())
def test_code_matches_reference_on_pruefer_trees(nbrs):
    assert code_from_neighbors(nbrs) == reference_code(nbrs)


def _oriented(nbrs, root):
    """A parent array of the tree pointing every vertex but ``root`` toward it."""
    parent = [-1] * len(nbrs)
    order = [root]
    for u in order:
        for v in nbrs[u]:
            if v != root and parent[v] < 0:
                parent[v] = u
                order.append(v)
    return parent


@st.composite
def rooted_trees(draw):
    """(neighbour lists, parent array, root) of a tree on 1..60 vertices:
    a Pruefer tree, a star, a path or two adjacent centres sharing the other
    vertices, randomly labelled and rooted at any vertex, leaves included.
    ``parent[root]`` holds an arbitrary vertex."""
    n = draw(st.integers(1, 60))
    shape = draw(st.sampled_from(["pruefer", "star", "path", "two-centre"]))
    if shape == "pruefer":
        size = max(n - 2, 0)
        seq = draw(st.lists(st.integers(0, n - 1), min_size=size, max_size=size))
        edges = prufer_tree_edges(n, seq)
    elif shape == "star":
        edges = [(0, v) for v in range(1, n)]
    elif shape == "path":
        edges = [(v, v + 1) for v in range(n - 1)]
    else:
        k = draw(st.integers(2, max(n, 2)))
        edges = [(0, 1)][: n - 1] + [(0, v) for v in range(2, k)] + [(1, v) for v in range(k, n)]
    edges = relabel_edges(edges, draw(st.permutations(range(n))))
    nbrs = _neighbors(edges, n)
    root = draw(st.integers(0, n - 1))
    parent = _oriented(nbrs, root)
    parent[root] = draw(st.integers(0, n - 1))
    return nbrs, parent, root


@settings(max_examples=400, deadline=None)
@given(rooted_trees())
def test_code_from_parents_matches_reference(tree):
    nbrs, parent, root = tree
    degrees = [len(row) for row in nbrs]
    before = (list(parent), list(degrees))
    assert code_from_parents(parent, root, degrees) == reference_code(nbrs)
    assert (parent, degrees) == before
    # The adapter roots at vertex 0; relabel a leaf to 0 so it roots at a leaf.
    leaf = degrees.index(1) if 1 in degrees else 0
    swap = {0: leaf, leaf: 0}
    relabelled = [sorted(swap.get(u, u) for u in nbrs[swap.get(v, v)]) for v in range(len(nbrs))]
    assert code_from_neighbors(relabelled) == reference_code(nbrs)


def _spider(legs):
    """One hub with paths of the given lengths hanging off it."""
    edges, n = [], 1
    for length in legs:
        prev = 0
        for _ in range(length):
            edges.append((prev, n))
            prev, n = n, n + 1
    return edges, n


@pytest.mark.parametrize(
    "edges, n, centers",
    [
        ([], 1, 1),
        ([(0, 1)], 2, 2),
        ([(0, 1), (1, 2)], 3, 1),
        ([(0, 2), (2, 1)], 3, 1),
        ([(i, i + 1) for i in range(9)], 10, 2),  # even path
        ([(i, i + 1) for i in range(10)], 11, 1),  # odd path
        ([(0, v) for v in range(1, 12)], 12, 1),  # star
        ([(5, v) for v in range(5)] + [(5, v) for v in range(6, 12)], 12, 1),  # star at 5
        (*_spider([3, 3, 2, 1]), 1),  # one center, uneven legs
        ([(0, 1), (0, 2), (0, 3), (3, 4), (4, 5), (4, 6), (5, 7)], 8, 2),  # two centers
        ([(0, 1), (1, 2), (1, 3), (2, 4), (2, 5)], 6, 2),  # double star
    ],
)
def test_code_matches_reference_on_shapes(edges, n, centers):
    nbrs = _neighbors(edges, n)
    assert code_from_neighbors(nbrs) == reference_code(nbrs)
    assert edge_list_code(edges, n) == reference_code(nbrs)
    # The oracle's leaf stripping may list a lone center twice.
    assert len(set(tree_centers(nbrs))) == centers


def test_code_matches_reference_on_sampled_trees():
    for g in (sl.random_regular(16, 300, sl.stream(21)), sl.complete_bipartite(3, 60)):
        for t in range(10):
            nbrs = tree_adjacency(sl.sample_wilson(g, sl.stream(22, t)))
            assert sl.code_from_neighbors(nbrs) == reference_code(nbrs)


def test_path_vs_star_codes_differ():
    path = edge_list_code([(0, 1), (1, 2), (2, 3)], 4)
    star = edge_list_code([(0, 1), (0, 2), (0, 3)], 4)
    assert path != star


def test_relabeling_invariance():
    path = edge_list_code([(0, 1), (1, 2), (2, 3)], 4)
    # Same path with labels permuted: 2-0-3-1.
    relabeled = edge_list_code([(0, 2), (0, 3), (1, 3)], 4)
    assert path == relabeled


def test_k4_spanning_trees_two_shapes():
    trees = sl.enumerate_spanning_trees(sl.complete_graph(4), 100)
    codes = {sl.code_from_neighbors(tree_adjacency(t)) for t in trees}
    assert len(codes) == 2


def test_not_a_tree_errors():
    # SpanningTree.from_edges, the checked way from an edge list to a code,
    # refuses these in tree_neighbors.
    with pytest.raises(NotATreeError):
        tree_neighbors([(0, 1), (1, 2), (0, 2)], 3)  # cycle
    with pytest.raises(NotATreeError):
        tree_neighbors([(0, 1)], 3)  # disconnected
    with pytest.raises(NotATreeError):
        tree_neighbors([(0, 0)], 1)


def test_canonical_imports_no_sampler_counter_or_stream():
    # Building codes stays a leaf: of spanlab's modules, canonical may
    # import only graphs and trees.
    imported = set()
    for node in ast.walk(ast.parse(Path(canonical.__file__).read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            modules = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ("spanlab." * bool(node.level) + (node.module or "")).rstrip(".")
            modules = [f"{base}.{a.name}" for a in node.names] if base == "spanlab" else [base]
        else:
            continue
        imported |= {m.partition(".")[2] or m for m in modules if m.split(".")[0] == "spanlab"}
    assert imported <= {"graphs", "trees"}, imported


def test_tiny_trees():
    assert edge_list_code([], 1) == b"()"
    assert edge_list_code([(0, 1)], 2) == b"(())"


def test_coding_a_big_star_keeps_no_memory():
    leaves = 20_000
    parent, degrees = [0] * (leaves + 1), [leaves] + [1] * leaves
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        code = code_from_parents(parent, 0, degrees)
        kept = tracemalloc.get_traced_memory()[0] - before - len(code)
    finally:
        tracemalloc.stop()
    assert code == b"(" + b"()" * leaves + b")"
    assert kept < 1 << 20, kept


def test_code_equality_matches_brute_isomorphism():
    rng = np.random.default_rng(41)
    checked_equal = 0
    for trial in range(300):
        n = int(rng.integers(2, 9))
        a = random_tree_edges(n, rng)
        if trial % 2:
            perm = list(rng.permutation(n))
            b = relabel_edges(a, perm)
        else:
            b = random_tree_edges(n, rng)
        same_code = edge_list_code(a, n) == edge_list_code(b, n)
        iso = brute_isomorphic(a, b, n)
        assert same_code == iso
        checked_equal += same_code
    assert checked_equal >= 150  # the relabeled half must all collide


def test_degree_histogram_examples():
    g = sl.complete_graph(5)
    star = sl.SpanningTree.from_edges(g, [(0, 1), (0, 2), (0, 3), (0, 4)])
    assert sl.histogram_key(star.degrees) == ((1, 4), (4, 1))
    path = sl.SpanningTree.from_edges(g, [(0, 1), (1, 2), (2, 3), (3, 4)])
    assert sl.histogram_key(path.degrees) == ((1, 2), (2, 3))


def test_degree_histogram_identities():
    rng = np.random.default_rng(43)
    g = sl.complete_graph(8)
    for trial in range(20):
        t = sl.sample_wilson(g, sl.stream(600 + trial))
        hist = dict(sl.histogram_key(t.degrees))
        assert sum(hist.values()) == g.n
        assert sum(k * c for k, c in hist.items()) == 2 * (g.n - 1)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 70), max_size=200))
@example([])
@example([1])
def test_histogram_key_matches_dict_loop(degrees):
    key = sl.histogram_key(degrees)
    assert key == reference_histogram_key(degrees)
    assert sl.histogram_key(tuple(degrees)) == key


def test_distinct_histograms_imply_distinct_codes():
    rng = np.random.default_rng(47)
    for _ in range(200):
        n = int(rng.integers(3, 9))
        a = random_tree_edges(n, rng)
        b = random_tree_edges(n, rng)
        if sl.histogram_key(_degrees(a, n)) != sl.histogram_key(_degrees(b, n)):
            assert edge_list_code(a, n) != edge_list_code(b, n)


def _degrees(edges, n):
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def test_count_non_isomorphic_exact():
    assert sl.count_non_isomorphic(sl.complete_graph(4), "exact", 100).distinct == 2
    assert sl.count_non_isomorphic(sl.cycle_graph(6), "exact", 10).distinct == 1


def test_count_non_isomorphic_k24_cross_oracle():
    g = sl.complete_bipartite(2, 4)
    report = sl.count_non_isomorphic(g, "exact", 100)
    # Independent route: enumerate labeled trees, group by permutation
    # isomorphism.
    trees = [t.edges() for t in sl.enumerate_spanning_trees(g, 100)]
    classes: list[list] = []
    for edges in trees:
        for cls in classes:
            if brute_isomorphic(edges, cls[0], g.n):
                cls.append(edges)
                break
        else:
            classes.append([edges])
    assert report.distinct == len(classes) == 2


def test_count_non_isomorphic_budget():
    with pytest.raises(CapExceededError):
        sl.count_non_isomorphic(sl.complete_graph(5), "exact", 10)
    with pytest.raises(ValueError):
        sl.count_non_isomorphic(sl.complete_graph(4), "bogus", 10)


def test_sampled_mode_monotone_in_budget():
    g = sl.complete_graph(7)
    counts = [
        sl.count_non_isomorphic(g, "sampled", budget, seed=77).distinct
        for budget in (10, 50, 200, 500)
    ]
    assert counts == sorted(counts)
    report = sl.count_non_isomorphic(g, "sampled", 500, seed=77)
    assert 0.0 <= report.unseen_mass <= 1.0
    assert report.coverage == pytest.approx(1.0 - report.unseen_mass)
