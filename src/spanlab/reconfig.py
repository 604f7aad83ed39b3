"""Reversible leaf reconfiguration of spanning trees.

A random vertex subset R marks leaves eligible for reconfiguration.  The
selection rule splits on vertex degree (cube-root-of-n threshold): low-
degree leaves may reattach anywhere outside R or at high-degree vertices;
high-degree leaves may reattach outside R or at vertices keeping at least
two tree neighbours outside R.  The rule is reversible: recomputing it on
any reachable reconfigured tree reproduces the same selection, which is
what makes the reconfigured tree uniform again.

The low-degree rule reads two per-graph tables (``high_degree`` and
``low_neighbors``): only a leaf's low-degree neighbours in R are barred.
The high-degree rule counts tree neighbours outside R once per
selection (``may_parent``).

All threshold comparisons are exact integer comparisons (d > n**(1/3) is
evaluated as d**3 > n, and so on); floating-point rounding here could
silently break reversibility.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import Graph
from .trees import SpanningTree

LOW_BRANCH = "low-degree"
HIGH_BRANCH = "high-degree"

# A selection is taken from the low-degree rule when it captures at least
# n/256 leaves; otherwise the high-degree rule is used.
SELECTION_DENOMINATOR = 256


def sample_vertex_subset(n: int, rng) -> frozenset[int]:
    """Include each vertex independently with one fair bit."""
    mask = rng.random(n) < 0.5
    return frozenset(mask.nonzero()[0].tolist())


@dataclass(frozen=True)
class StrategyOutcome:
    """A branch tag plus its selection: each selected leaf, in selection
    order, maps to its candidate parents.

    Invariants: every selected vertex is a leaf of the tree; its current
    parent is among its candidates; candidates never include selected
    leaves.
    """

    branch: str
    selection: dict[int, tuple[int, ...]]


def high_degree(g: Graph) -> tuple[bool, ...]:
    """Per vertex, whether deg^3 > n: the degree split of the selection rule.

    A constant of the graph, computed on first use and kept on it.
    """
    table = g._high_degree
    if table is None:
        n = g.n
        table = g._high_degree = tuple([d**3 > n for d in g.degrees])
    return table


def low_neighbors(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Per vertex, its neighbours u with deg(u)^3 <= n, in increasing order.

    These are the only neighbours a subset can bar from being the parent
    of a low-degree leaf.  A constant of the graph, computed on first use
    and kept on it.
    """
    table = g._low_neighbors
    if table is None:
        is_high = high_degree(g)
        table = g._low_neighbors = tuple(
            [tuple([u for u in nbrs if not is_high[u]]) for nbrs in g.neighbors]
        )
    return table


def may_parent(g: Graph, tree: SpanningTree, subset: frozenset) -> list[bool]:
    """Per vertex, whether it may be a parent of a leaf selected on the
    high-degree branch: it lies outside the subset or keeps at least two
    tree neighbours outside it, so it stays an inner vertex whatever the
    selected leaves do.
    """
    # One pass over the tree edges (v, parent[v]): each edge with exactly
    # one end in the subset leaves it at that end.
    n = g.n
    inside = np.zeros(n, dtype=bool)
    inside[np.fromiter(subset, np.intp, len(subset))] = True
    parent = np.fromiter(tree.parent, np.intp, n)
    crossing = inside != inside[parent]
    crossing[tree.root] = False
    ends = np.where(inside, np.arange(n), parent)[crossing]
    outside = np.bincount(ends, minlength=n)
    return (~inside | (outside >= 2)).tolist()


def select_leaves(g: Graph, tree: SpanningTree, subset: frozenset) -> StrategyOutcome:
    """Pick the reconfigurable leaves of ``tree`` for the given subset.

    A leaf in the subset is selected when its current parent may stay a
    parent and at least a share of its neighbourhood may be a parent.  The
    low-degree pass (leaves with deg^3 <= n, half the neighbourhood) wins
    when it captures at least n/256 leaves; otherwise the high-degree pass
    (quarter-neighbourhood threshold, see ``may_parent``) is used.
    """
    n = g.n
    is_high = high_degree(g)
    degs = tree.degrees
    # The subset's leaves in vertex order: the order of the selection.
    inside = sorted([v for v in subset if degs[v] == 1])
    low_leaves = [v for v in inside if not is_high[v]]
    low = _select_low(g, tree, low_leaves, subset) if low_leaves else {}
    if SELECTION_DENOMINATOR * len(low) >= n:
        return StrategyOutcome(LOW_BRANCH, low)
    # The outside counts behind the high rule are only paid for here.
    high_leaves = [v for v in inside if is_high[v]]
    high = _select_high(g, tree, high_leaves, may_parent(g, tree, subset))
    return StrategyOutcome(HIGH_BRANCH, high)


def _select_low(g: Graph, tree: SpanningTree, leaves, subset: frozenset) -> dict:
    """The low-degree rule: a vertex may be a parent unless it is a
    low-degree vertex in the subset.  Each leaf whose parent may stay and
    that keeps at least half its neighbours is mapped to those neighbours.

    Only a leaf's low-degree neighbours in the subset are barred, so a leaf
    with none of them keeps its whole neighbour tuple.
    """
    gn = g.neighbors
    degs = g.degrees
    parent = tree.parent
    lows = low_neighbors(g)
    selection: dict[int, tuple[int, ...]] = {}
    for v in leaves:
        barred = lows[v]
        if barred:
            barred = subset.intersection(barred)
        if not barred:
            selection[v] = gn[v]
        elif parent[v] not in barred:
            cands = tuple([u for u in gn[v] if u not in barred])
            if 2 * len(cands) >= degs[v]:
                selection[v] = cands
    return selection


def _select_high(g: Graph, tree: SpanningTree, leaves, ok) -> dict:
    """The leaves whose parent is ``ok`` and that keep at least a quarter of
    their neighbours ``ok``, each mapped to those neighbours."""
    gn = g.neighbors
    degs = g.degrees
    parent = tree.parent
    selection: dict[int, tuple[int, ...]] = {}
    for v in leaves:
        if not ok[parent[v]]:
            continue
        cands = tuple([u for u in gn[v] if ok[u]])
        if 4 * len(cands) >= degs[v]:
            selection[v] = cands
    return selection


def validate_selection(g: Graph, tree: SpanningTree, selection: dict) -> None:
    """Raise ValueError unless the selection is valid for (g, tree)."""
    for v, cands in selection.items():
        if tree.degrees[v] != 1:
            raise ValueError(f"vertex {v} is not a leaf of the tree")
        if tree.parent[v] not in cands:
            raise ValueError(f"current parent of {v} missing from its candidates")
        for u in cands:
            if not g.has_edge(v, u):
                raise ValueError(f"candidate {u} is not a graph neighbour of {v}")
            if u in selection:
                raise ValueError(f"candidate {u} of {v} is itself selected")


def reconfigure(g: Graph, tree: SpanningTree, selection: dict, rng) -> SpanningTree:
    """Detach each selected leaf and reattach it to a uniform candidate.

    The selection is trusted (``validate_selection`` checks one).  Each
    move sets the leaf's parent entry, in selection order, on copies of
    the parent and degree arrays, so a fresh tree comes back and ``tree``
    is left as it was (auditing needs both).  The result is a spanning
    tree by construction: candidates exclude selected leaves, so the
    unselected core stays a tree and each leaf hangs off it.
    """
    parent = tree.parent.copy()
    degs = tree.degrees.copy()
    buf = rng.random(len(selection)).tolist()
    for x, (v, cands) in zip(buf, selection.items()):
        p = cands[int(x * len(cands))]
        degs[parent[v]] -= 1
        degs[p] += 1
        parent[v] = p
    return SpanningTree(g, parent, tree.root, degs)


@dataclass
class AuditReport:
    trials: int
    violations: list[dict]
    outcome: StrategyOutcome  # the audited selection on the original tree

    @property
    def ok(self) -> bool:
        return not self.violations


def audit_reversibility(
    g: Graph,
    tree: SpanningTree,
    subset: frozenset,
    trials: int,
    rng,
    strategy=select_leaves,
) -> AuditReport:
    """Sample reconfigurations and recompute the selection from scratch.

    Any difference between the original outcome and the outcome computed
    on a reconfigured tree (branch tag, leaf set, or any candidate set) is
    recorded as a violation.  The production rule should never produce
    one; the ``strategy`` hook lets tests audit deliberately broken rules.
    """
    base = strategy(g, tree, subset)
    violations: list[dict] = []
    for t in range(trials):
        redone = reconfigure(g, tree, base.selection, rng)
        again = strategy(g, redone, subset)
        diff = _outcome_diff(base, again)
        if diff:
            violations.append({"trial": t, **diff})
    return AuditReport(trials=trials, violations=violations, outcome=base)


def _outcome_diff(a: StrategyOutcome, b: StrategyOutcome) -> dict | None:
    if a.branch != b.branch:
        return {"field": "branch", "before": a.branch, "after": b.branch}
    if a.selection.keys() != b.selection.keys():
        return {
            "field": "leaves",
            "before": sorted(a.selection),
            "after": sorted(b.selection),
        }
    for v, cands in a.selection.items():
        if cands != b.selection[v]:
            return {
                "field": f"parents[{v}]",
                "before": list(cands),
                "after": list(b.selection[v]),
            }
    return None
