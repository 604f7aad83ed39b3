from collections import Counter
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spanlab as sl
from spanlab import HIGH_BRANCH, LOW_BRANCH, SpanningTree, StrategyOutcome
from spanlab import rng as rnglib
from spanlab.reconfig import high_degree, low_neighbors, may_parent

from helpers import (
    random_connected_graph,
    reference_may_parent,
    reference_reconfigure,
    reference_select_leaves,
    reference_vertex_subset,
)


def subset(*vertices) -> frozenset[int]:
    return frozenset(vertices)


# ---------------------------------------------------------------------------
# Subsets and the degree split
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 600), st.integers(0, 2**64 - 1))
@example(0, 0)
@example(1, 0)
def test_vertex_subset_matches_per_element_reference(n, seed):
    fast = sl.sample_vertex_subset(n, sl.stream(seed, rnglib.SUBSET, 0))
    ref = reference_vertex_subset(n, sl.stream(seed, rnglib.SUBSET, 0))
    assert fast == ref
    assert all(type(v) is int for v in fast)


def test_high_degree_table_matches_cube_rule():
    rng = np.random.default_rng(41)
    graphs = [random_connected_graph(int(rng.integers(1, 12)), rng, p) for p in (0.2, 0.5, 0.9)
              for _ in range(10)]
    graphs += [sl.complete_bipartite(3, 40), sl.path_graph(8), sl.complete_graph(3)]
    for g in graphs:
        table = high_degree(g)
        assert table == tuple(d**3 > g.n for d in g.degrees)
        assert high_degree(g) is table  # computed once per graph
        lows = low_neighbors(g)
        assert lows == tuple(
            tuple(u for u in g.neighbors[v] if g.degrees[u] ** 3 <= g.n) for v in range(g.n)
        )
        assert low_neighbors(g) is lows


# ---------------------------------------------------------------------------
# Candidate-parent rules
# ---------------------------------------------------------------------------


def high_candidates(g, tree, r, v) -> tuple[int, ...]:
    """The neighbours of v that the high-degree rule lets be its parent."""
    ok = may_parent(g, tree, r)
    assert ok == reference_may_parent(g, tree, r, HIGH_BRANCH)
    return tuple(u for u in g.neighbors[v] if ok[u])


def _tree_with_leaf(g, v, p):
    """A spanning tree of g in which v is a leaf hanging on p (g - v must be
    connected)."""
    edges, seen, order = [(v, p)], {v, p}, [p]
    for u in order:
        for w in g.neighbors[u]:
            if w not in seen:
                seen.add(w)
                order.append(w)
                edges.append((u, w))
    return SpanningTree.from_edges(g, edges)


def low_candidates(g, r, v) -> tuple[int, ...]:
    """The neighbours of v that the low-degree rule lets be its parent, read
    off the oracle's may-parent list.  When v is a low-degree vertex,
    ``select_leaves`` agrees on trees hanging v on each of its neighbours
    in turn, with v in the subset: it selects v with exactly these
    candidates when its parent is one of them and they are at least half
    its neighbours, and otherwise not."""
    # The low-degree rule reads degrees only, so any spanning tree will do.
    any_tree = sl.sample_wilson(g, sl.stream(0))
    ok = reference_may_parent(g, any_tree, r, LOW_BRANCH)
    cands = tuple(u for u in g.neighbors[v] if ok[u])
    if g.degrees[v] ** 3 <= g.n:
        for p in g.neighbors[v]:
            t = _tree_with_leaf(g, v, p)
            outcome = sl.select_leaves(g, t, r | {v})
            if p in cands and 2 * len(cands) >= g.degrees[v]:
                assert outcome.branch == LOW_BRANCH  # one leaf suffices for n <= 256
                assert outcome.selection[v] == cands
            else:
                assert v not in outcome.selection
    return cands


def test_parents_low_degree_empty_subset_keeps_everything():
    g = sl.complete_graph(5)
    assert low_candidates(g, subset(), 0) == tuple(g.neighbors[0])


def test_parents_low_degree_full_subset_small_degrees():
    g = sl.cycle_graph(8)  # degrees 2, 2^3 = 8 <= 8, so nobody survives
    assert low_candidates(g, subset(*range(8)), 0) == ()


def test_parents_low_degree_high_degree_vertices_survive():
    g = sl.complete_bipartite(3, 60)  # n = 63; small side has degree 60
    everyone = subset(*range(63))
    assert low_candidates(g, everyone, 5) == (0, 1, 2)  # 60^3 > 63


def test_parents_high_degree_empty_subset_keeps_everything():
    g = sl.complete_graph(5)
    t = SpanningTree.from_edges(g, [(0, 1), (1, 2), (2, 3), (3, 4)])
    assert high_candidates(g, t, subset(), 0) == tuple(g.neighbors[0])


def test_parents_high_degree_leaf_in_subset_excluded():
    g = sl.complete_graph(4)
    t = SpanningTree.from_edges(g, [(0, 1), (1, 2), (2, 3)])
    # Vertex 3 is a tree leaf inside the subset: one tree neighbour, so it
    # can never keep two outside the subset.
    cands = high_candidates(g, t, subset(3), 0)
    assert 3 not in cands
    assert set(cands) == {1, 2}


def test_parents_high_degree_star_center_included():
    g = sl.complete_graph(5)
    star = SpanningTree.from_edges(g, [(0, 1), (0, 2), (0, 3), (0, 4)])
    # Center 0 sits in the subset but keeps leaves 2,3,4 outside it.
    cands = high_candidates(g, star, subset(0, 1), 1)
    assert 0 in cands


# ---------------------------------------------------------------------------
# The selection rule
# ---------------------------------------------------------------------------


def test_empty_subset_gives_empty_high_branch():
    g = sl.complete_graph(6)
    t = sl.sample_wilson(g, sl.stream(5))
    outcome = sl.select_leaves(g, t, subset())
    assert outcome.branch == HIGH_BRANCH
    assert outcome.selection == {}


def test_low_branch_boundary_is_inclusive():
    # Path on 256 vertices: a single qualifying low-degree leaf reaches
    # exactly 256 * 1 >= n, so the low branch is taken.
    g = sl.path_graph(256)
    t = SpanningTree.from_edges(g, g.edges())
    outcome = sl.select_leaves(g, t, subset(0))
    assert outcome.branch == LOW_BRANCH
    assert list(outcome.selection) == [0]
    # One vertex more and the same selection falls short: high branch.
    g2 = sl.path_graph(257)
    t2 = SpanningTree.from_edges(g2, g2.edges())
    outcome2 = sl.select_leaves(g2, t2, subset(0))
    assert outcome2.branch == HIGH_BRANCH
    # Leaf 0 is low-degree (1 <= 257), so the high pass has none to select.
    assert outcome2.selection == {}


def test_low_branch_hand_execution_on_k3_100():
    # K_{3,100}: small side {0,1,2} of degree 100, large side of degree 3.
    # n = 103, 3^3 <= 103, so large-side leaves are low-degree candidates.
    g = sl.complete_bipartite(3, 100)
    edges = [(0, u) for u in range(3, 103)] + [(1, 3), (2, 4)]
    t = SpanningTree.from_edges(g, edges)
    r = subset(5, 6, 7, 1)
    outcome = sl.select_leaves(g, t, r)
    # Leaves of t in r: large 5,6,7 (degree 3, low) and small 1 (degree
    # 100, high). Candidates for each low leaf: 0 and 2 are outside r,
    # vertex 1 is inside r but 100^3 > 103 keeps it; so all three
    # neighbours stay, 2*3 >= 3, and the parent 0 is among them.
    assert outcome.branch == LOW_BRANCH
    assert list(outcome.selection) == [5, 6, 7]
    assert all(outcome.selection[v] == (0, 1, 2) for v in (5, 6, 7))


def _checked_selection(g, t, r):
    outcome = sl.select_leaves(g, t, r)
    sl.validate_selection(g, t, outcome.selection)
    chosen = set(outcome.selection)
    assert chosen <= set(t.leaves()) and chosen <= r
    for v, cands in outcome.selection.items():
        assert t.parent[v] in cands
        assert set(cands) <= set(g.neighbors[v])
        assert not chosen.intersection(cands)
    return outcome


def test_selection_invariants_on_random_instances():
    rng = np.random.default_rng(31)
    for trial in range(25):
        g = random_connected_graph(int(rng.integers(4, 10)), rng)
        t = sl.sample_wilson(g, sl.stream(400 + trial))
        r = sl.sample_vertex_subset(g.n, sl.stream(500 + trial))
        _checked_selection(g, t, r)
    # Larger graphs where each branch selects many leaves: 16^3 > 300
    # sends regular(16, 300) to the high-degree branch, while the degree-3
    # side of K_{3,40} (3^3 <= 43) feeds the low-degree branch.
    larger = [
        (sl.random_regular(16, 300, sl.stream(32)), HIGH_BRANCH),
        (sl.complete_bipartite(3, 40), LOW_BRANCH),
    ]
    for i, (g, branch) in enumerate(larger):
        for trial in range(5):
            t = sl.sample_wilson(g, sl.stream(600, i, trial))
            r = sl.sample_vertex_subset(g.n, sl.stream(700, i, trial))
            outcome = _checked_selection(g, t, r)
            assert outcome.branch == branch
            assert len(outcome.selection) > 0


# ---------------------------------------------------------------------------
# Reconfiguration
# ---------------------------------------------------------------------------


def test_reconfigure_empty_selection_is_identity():
    g = sl.complete_graph(5)
    t = sl.sample_wilson(g, sl.stream(1))
    sl.validate_selection(g, t, {})
    out = sl.reconfigure(g, t, {}, sl.stream(2))
    assert out is not t
    assert out.edge_key() == t.edge_key()


def test_reconfigure_forced_choice_is_identity():
    g = sl.complete_graph(4)
    t = SpanningTree.from_edges(g, [(0, 1), (1, 2), (2, 3)])
    sel = {0: (1,)}
    sl.validate_selection(g, t, sel)
    out = sl.reconfigure(g, t, sel, sl.stream(3))
    assert out.edge_key() == t.edge_key()


def test_reconfigure_star_recenters_nothing():
    g = sl.build_graph([(0, 1), (0, 2), (0, 3), (0, 4)], 5)  # star, center 0
    t = SpanningTree.from_edges(g, g.edges())
    sel = {1: (0,), 2: (0,)}
    sl.validate_selection(g, t, sel)
    out = sl.reconfigure(g, t, sel, sl.stream(4))
    assert out.edge_key() == t.edge_key()


def test_reconfigure_never_mutates_input():
    g = sl.complete_graph(6)
    t = sl.sample_wilson(g, sl.stream(6))
    before = t.edge_key()
    r = sl.sample_vertex_subset(g.n, sl.stream(7))
    outcome = sl.select_leaves(g, t, r)
    sl.validate_selection(g, t, outcome.selection)
    for trial in range(10):
        out = sl.reconfigure(g, t, outcome.selection, sl.stream(8, trial))
        assert out.is_spanning_tree()
    assert t.edge_key() == before


def test_reconfigure_choices_are_uniform():
    g = sl.complete_graph(4)
    t = SpanningTree.from_edges(g, [(0, 1), (1, 2), (2, 3)])
    sel = {0: (1, 2)}
    rng = sl.stream(9)

    def moved_parent():
        out = sl.reconfigure(g, t, sel, rng)
        assert out.degrees[0] == 1
        return out.parent[0]

    counts = Counter(moved_parent() for _ in range(20000))
    assert set(counts) == {1, 2}
    assert abs(counts[1] - 10000) < 400  # ~5 sigma for a fair coin


def _random_selection(g, t, rng) -> dict[int, tuple[int, ...]]:
    """Random leaves of t, each with a random non-empty set of unselected
    graph neighbours that includes its current parent.  Of two adjacent
    leaves (n = 2) only the first may be drawn."""
    chosen = set()
    for v in t.leaves():
        if rng.random() < 0.5 and t.parent[v] not in chosen:
            chosen.add(v)
    leaves = sorted(chosen)
    parents = {}
    for v in leaves:
        others = [u for u in g.neighbors[v] if u not in chosen and u != t.parent[v]]
        keep = [u for u in others if rng.random() < 0.5]
        parents[v] = tuple(sorted([t.parent[v], *keep]))
    return parents


def _assert_move_matches_reference(g, t, sel, *path):
    """reconfigure equals the rebuild from every kept edge plus the moved
    leaves, drawn from ``stream(*path)``, and leaves ``t`` as it was; every
    leaf's parent entry is its one tree edge."""
    sl.validate_selection(g, t, sel)
    before = t.edge_key()
    out = sl.reconfigure(g, t, sel, sl.stream(*path))
    ref = reference_reconfigure(g, t, sel, sl.stream(*path))
    assert out.edge_key() == ref.edge_key()
    assert out.degrees == ref.degrees
    assert out.is_spanning_tree()
    edges = set(ref.edge_key())
    for v in out.leaves():
        p = out.parent[v]
        assert ((v, p) if v < p else (p, v)) in edges
    assert t.edge_key() == before
    return out


def test_reconfigure_matches_rebuild_from_scratch():
    # On both branches and on random selections that select_leaves would
    # not make.
    rng = np.random.default_rng(37)
    graphs = [sl.random_regular(16, 300, sl.stream(32)), sl.complete_bipartite(3, 40)]
    for i, g in enumerate(graphs):
        for trial in range(6):
            t = sl.sample_wilson(g, sl.stream(800, i, trial))
            r = sl.sample_vertex_subset(g.n, sl.stream(801, i, trial))
            for sel in (sl.select_leaves(g, t, r).selection, _random_selection(g, t, rng)):
                _assert_move_matches_reference(g, t, sel, 802, i, trial)
            report = sl.audit_reversibility(g, t, r, trials=5, rng=sl.stream(803, i, trial))
            assert report.ok


# Hand-built moves around the root of the parent array: (graph, parent
# array, root, selection).  Samplers root every tree at vertex 0.
ROOT_CASES = {
    # 0 is a leaf hanging on 1, and it is selected.
    "root-selected": (sl.complete_graph(4), [0, 0, 1, 1], 0, {0: (1, 2, 3)}),
    # 0 keeps only child 1 once its leaf child 2 moves to 3 or 4.
    "root-becomes-leaf": (sl.complete_graph(5), [0, 0, 0, 1, 1], 0, {2: (0, 3, 4)}),
    # 0 is a selected leaf, so 1 takes the root role; 1 becomes a leaf in
    # turn when 0 and 2 both move to 3 or 4.
    "root-selected-and-new-leaf": (
        sl.complete_graph(5), [0, 0, 1, 1, 3], 0, {0: (1, 3), 2: (1, 3, 4)},
    ),
    "n1": (sl.complete_graph(1), [0], 0, {}),
    "n2-root": (sl.complete_graph(2), [0, 0], 0, {0: (1,)}),
    "n2-child": (sl.complete_graph(2), [0, 0], 0, {1: (0,)}),
    "n3-root": (sl.complete_graph(3), [0, 0, 1], 0, {0: (1, 2)}),
    "n3-path-end": (sl.path_graph(3), [1, 1, 1], 1, {2: (1,)}),
}


@pytest.mark.parametrize("name", sorted(ROOT_CASES))
def test_reconfigure_around_the_root(name):
    g, parent, root, sel = ROOT_CASES[name]
    t = SpanningTree.from_parents(g, list(parent), root)
    outs = {_assert_move_matches_reference(g, t, sel, 804, s).edge_key() for s in range(20)}
    # Every candidate of a moved leaf is taken in some draw.
    for v, cands in sel.items():
        assert {p for key in outs for p in cands if (min(v, p), max(v, p)) in key} == set(cands)


def test_validate_selection_rejects_bad_input():
    g = sl.complete_graph(4)
    t = SpanningTree.from_edges(g, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(ValueError):
        sl.validate_selection(g, t, {1: (0,)})  # not a leaf
    with pytest.raises(ValueError):
        sl.validate_selection(g, t, {0: (2,)})  # parent missing
    with pytest.raises(ValueError):
        # 3 is selected, so it cannot appear as a candidate of 0.
        sl.validate_selection(g, t, {0: (1, 3), 3: (2,)})


# ---------------------------------------------------------------------------
# Reversibility
# ---------------------------------------------------------------------------


def test_audit_empty_selection_has_no_violations():
    g = sl.complete_graph(6)
    t = sl.sample_wilson(g, sl.stream(10))
    report = sl.audit_reversibility(g, t, subset(), trials=20, rng=sl.stream(11))
    assert report.ok and report.trials == 20


def test_audit_sampled_families_zero_violations():
    cases = [
        sl.complete_bipartite(3, 30),
        sl.complete_graph(12),
        sl.random_regular(4, 24, sl.stream(12)),
    ]
    for i, g in enumerate(cases):
        for j in range(5):
            t = sl.sample_wilson(g, sl.stream(13, i, j))
            r = sl.sample_vertex_subset(g.n, sl.stream(14, i, j))
            report = sl.audit_reversibility(g, t, r, trials=40, rng=sl.stream(15, i, j))
            assert report.ok, report.violations[0]


def _corrupted_select(g, tree, sub):
    """The selection rule without the parent-membership test.

    Dropping 'current parent stays a candidate' lets a selected leaf leave
    a parent that then turns into a leaf of the new tree, so recomputing
    the rule there disagrees.  The candidate sets still append the true
    parent, otherwise the reconfiguration itself would be invalid.
    """
    n = g.n
    degs = g.degrees
    low, high = {}, {}
    for v in tree.leaves():
        if v not in sub:
            continue
        parent = tree.parent[v]
        if degs[v] ** 3 <= n:
            ok = reference_may_parent(g, tree, sub, LOW_BRANCH)
            cands = tuple(u for u in g.neighbors[v] if ok[u])
            if 2 * len(cands) >= degs[v]:
                low[v] = cands if parent in cands else cands + (parent,)
        else:
            cands = high_candidates(g, tree, sub, v)
            if 4 * len(cands) >= degs[v]:
                high[v] = cands if parent in cands else cands + (parent,)
    if 256 * len(low) >= n:
        return StrategyOutcome(LOW_BRANCH, low)
    return StrategyOutcome(HIGH_BRANCH, high)


def test_auditor_catches_corrupted_strategy_on_k3_50():
    # K_{3,50} (n = 53): small side {0,1,2} of degree 50, large of degree 3.
    g = sl.complete_bipartite(3, 50)
    # Tree: hub 0 carries every large vertex except that 1 hangs off 4 and
    # 2 hangs off 5. Vertex 2 is a high-degree leaf whose parent 5 has
    # tree neighbours {0, 2}.
    edges = [(0, u) for u in range(3, 53)] + [(1, 4), (2, 5)]
    t = SpanningTree.from_edges(g, edges)
    r = subset(0, 2, 5)
    # The honest rule refuses leaf 2: its parent 5 sits in the subset with
    # no two tree neighbours outside it.
    honest = sl.select_leaves(g, t, r)
    assert 2 not in honest.selection
    # The corrupted rule selects it; moving 2 away turns 5 into a leaf of
    # the new tree and the recomputed outcome flips branch.
    report = sl.audit_reversibility(
        g, t, r, trials=50, rng=sl.stream(16), strategy=_corrupted_select
    )
    assert not report.ok
    assert any(v["field"] == "branch" for v in report.violations)


# ---------------------------------------------------------------------------
# Partition property on exhaustively enumerated instances
# ---------------------------------------------------------------------------


def _reachable_keys(g, t, selection):
    """Edge keys of every tree reachable from t under the selection."""
    if not selection:
        return {t.edge_key()}
    base = {
        (u, v)
        for u, v in t.edges()
        if u not in selection and v not in selection
    }
    keys = set()
    options = [[(v, p) for p in cands] for v, cands in selection.items()]
    for combo in product(*options):
        edges = set(base)
        for v, p in combo:
            edges.add((v, p) if v < p else (p, v))
        keys.add(tuple(sorted(edges)))
    return keys


@pytest.mark.parametrize(
    "g", [sl.complete_graph(4), sl.complete_bipartite(2, 3), sl.cycle_graph(5)],
    ids=["K4", "K23", "C5"],
)
def test_partition_property_exhaustive(g):
    trees = sl.enumerate_spanning_trees(g, cap=100)
    by_key = {t.edge_key(): t for t in trees}
    rng = np.random.default_rng(23)
    subsets = [frozenset(int(v) for v in np.flatnonzero(rng.random(g.n) < 0.5)) for _ in range(12)]
    subsets += [frozenset(), frozenset(range(g.n))]
    for r in subsets:
        outcomes = {key: sl.select_leaves(g, t, r) for key, t in by_key.items()}
        reach = {
            key: _reachable_keys(g, by_key[key], outcome.selection)
            for key, outcome in outcomes.items()
        }
        for key, targets in reach.items():
            assert key in targets  # staying put is always reachable
            for other in targets:
                # Exact reversibility: identical outcome on every
                # reachable tree, hence symmetric reachability classes.
                assert outcomes[other].branch == outcomes[key].branch
                assert outcomes[other].selection == outcomes[key].selection
                assert reach[other] == targets


# ---------------------------------------------------------------------------
# Properties on random graphs and seeds
# ---------------------------------------------------------------------------

# K_{3,30}: 3^3 <= 33, so its degree-3 leaves feed the low branch.  K_7:
# 6^3 > 7 for every vertex, so no leaf is low and the high branch runs;
# at seed 3 it selects leaves.
BRANCH_EXAMPLES = [
    (sl.complete_bipartite(3, 30), 0, LOW_BRANCH),
    (sl.complete_graph(7), 3, HIGH_BRANCH),
]


@st.composite
def connected_graphs(draw):
    n = draw(st.integers(1, 10))
    p = draw(st.sampled_from([0.35, 0.5, 0.8]))
    return random_connected_graph(n, np.random.default_rng(draw(st.integers(0, 2**32 - 1))), p)


def _matches_reference_selection(g, tree, r):
    """select_leaves, checked against the oracle's selection (order included)."""
    outcome = sl.select_leaves(g, tree, r)
    ref = reference_select_leaves(g, tree, r)
    assert outcome.branch == ref.branch
    assert list(outcome.selection.items()) == list(ref.selection.items())
    return outcome


def _pipeline_instance(g, seed):
    tree = sl.sample_wilson(g, sl.stream(seed, rnglib.TREE, 0))
    r = sl.sample_vertex_subset(g.n, sl.stream(seed, rnglib.SUBSET, 0))
    return tree, r


@settings(max_examples=150, deadline=None)
@given(connected_graphs(), st.integers(0, 2**64 - 1))
@example(*BRANCH_EXAMPLES[0][:2])
@example(*BRANCH_EXAMPLES[1][:2])
def test_reconfigure_and_audit_properties(g, seed):
    tree, r = _pipeline_instance(g, seed)
    outcome = _matches_reference_selection(g, tree, r)
    _assert_move_matches_reference(g, tree, outcome.selection, seed, rnglib.RECONF, 0)
    picked = _random_selection(g, tree, np.random.default_rng(seed))
    _assert_move_matches_reference(g, tree, picked, seed, rnglib.RECONF, 2)
    report = sl.audit_reversibility(g, tree, r, trials=3, rng=sl.stream(seed, rnglib.RECONF, 1))
    assert report.ok, report.violations[0]


# Random graphs of minimum degree 3 and more, built from ``stream(seed, 91)``.
# regular:3,30 has 3^3 <= 30 at every vertex, so the low branch can run;
# gnp on 10 vertices has deg^3 > 10 everywhere, so only the high one can.
MIN_DEGREE_EXAMPLES = [
    (("regular", 3, 30), 2, LOW_BRANCH),
    (("gnp", 10, 0.6, 3), 3, HIGH_BRANCH),
]


@st.composite
def min_degree_specs(draw):
    if draw(st.booleans()):
        d = draw(st.integers(3, 5))
        return ("regular", d, draw(st.integers(d + 1, 40).filter(lambda n: d * n % 2 == 0)))
    return ("gnp", draw(st.integers(4, 14)), draw(st.sampled_from([0.6, 0.8])), 3)


def min_degree_graph(spec, seed):
    family, *params = spec
    build = sl.random_regular if family == "regular" else sl.gnp_min_degree
    return build(*params, sl.stream(seed, 91))


@settings(max_examples=100, deadline=None)
@given(min_degree_specs(), st.integers(0, 2**64 - 1))
@example(*MIN_DEGREE_EXAMPLES[0][:2])
@example(*MIN_DEGREE_EXAMPLES[1][:2])
def test_audit_on_random_min_degree_graphs(spec, seed):
    g = min_degree_graph(spec, seed)
    assert g.min_degree() >= 3
    tree, r = _pipeline_instance(g, seed)
    _matches_reference_selection(g, tree, r)
    report = sl.audit_reversibility(g, tree, r, trials=3, rng=sl.stream(seed, rnglib.RECONF, 0))
    assert report.ok, report.violations[0]


@pytest.mark.parametrize(
    "g, seed, branch",
    BRANCH_EXAMPLES
    + [(min_degree_graph(spec, seed), seed, branch) for spec, seed, branch in MIN_DEGREE_EXAMPLES],
    ids=["K3_30", "K7", "regular3_30", "gnp10"],
)
def test_property_examples_take_both_branches(g, seed, branch):
    tree, r = _pipeline_instance(g, seed)
    outcome = sl.select_leaves(g, tree, r)
    assert outcome.branch == branch
    assert outcome.selection
