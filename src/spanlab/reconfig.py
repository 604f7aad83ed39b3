"""Reversible leaf reconfiguration of spanning trees.

A random vertex subset R marks leaves eligible for reconfiguration.  The
selection rule splits on vertex degree (cube-root-of-n threshold): low-
degree leaves may reattach anywhere outside R or at high-degree vertices;
high-degree leaves may reattach outside R or at vertices keeping at least
two tree neighbours outside R.  The rule is reversible: recomputing it on
any reachable reconfigured tree reproduces the same selection, which is
what makes the reconfigured tree uniform again.

All threshold comparisons are exact integer comparisons (d > n**(1/3) is
evaluated as d**3 > n, and so on); floating-point rounding here could
silently break reversibility.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    low_count: int
    high_count: int | None  # None when the low branch was taken


def high_degree(g: Graph) -> tuple[bool, ...]:
    """Per vertex, whether deg^3 > n: the degree split of the selection rule.

    A constant of the graph, computed on first use and kept on it.
    """
    table = g._high_degree
    if table is None:
        n = g.n
        table = g._high_degree = tuple([d**3 > n for d in g.degrees])
    return table


def may_parent(g: Graph, tree: SpanningTree, subset: frozenset, branch: str) -> list[bool]:
    """Per vertex, whether it may be a parent of a leaf selected on ``branch``.

    ``u`` may be a parent iff it lies outside the subset or is safe for
    the branch.  Low-degree branch: safe means deg(u)^3 > n (such vertices
    are never selected there).  High-degree branch: safe means ``u`` keeps
    at least two tree neighbours outside the subset, so it stays an inner
    vertex whatever the selected leaves do.
    """
    ok = [True] * g.n
    if branch == LOW_BRANCH:
        is_high = high_degree(g)
        for u in subset:
            ok[u] = is_high[u]
    else:
        tree_nbrs = tree.neighbors
        for u in subset:
            outside = 0
            for w in tree_nbrs[u]:
                if w not in subset:
                    outside += 1
            ok[u] = outside >= 2
    return ok


def select_leaves(g: Graph, tree: SpanningTree, subset: frozenset) -> StrategyOutcome:
    """Pick the reconfigurable leaves of ``tree`` for the given subset.

    A leaf in the subset is selected when its current parent may stay a
    parent and at least a share of its neighbourhood may be a parent (see
    ``may_parent``).  The low-degree pass (leaves with deg^3 <= n, half
    the neighbourhood) wins when it captures at least n/256 leaves;
    otherwise the high-degree pass (quarter-neighbourhood threshold) is
    used.
    """
    n = g.n
    is_high = high_degree(g)
    low_leaves: list[int] = []
    high_leaves: list[int] = []
    for v in tree.leaves():
        if v in subset:
            (high_leaves if is_high[v] else low_leaves).append(v)

    low = {}
    if low_leaves:
        low = _select(g, tree, low_leaves, may_parent(g, tree, subset, LOW_BRANCH), 2)
    if SELECTION_DENOMINATOR * len(low) >= n:
        return StrategyOutcome(LOW_BRANCH, low, len(low), None)
    # The outside counts behind the high rule are only paid for here.
    high = _select(g, tree, high_leaves, may_parent(g, tree, subset, HIGH_BRANCH), 4)
    return StrategyOutcome(HIGH_BRANCH, high, len(low), len(high))


def _select(g: Graph, tree: SpanningTree, leaves, ok, share: int) -> dict:
    """The leaves whose parent is ``ok`` and that keep at least 1/share of
    their neighbours ``ok``, each mapped to those neighbours."""
    gn = g.neighbors
    degs = g.degrees
    tree_nbrs = tree.neighbors
    selection: dict[int, tuple[int, ...]] = {}
    for v in leaves:
        if not ok[tree_nbrs[v][0]]:
            continue
        cands = tuple([u for u in gn[v] if ok[u]])
        if share * len(cands) >= degs[v]:
            selection[v] = cands
    return selection


def validate_selection(g: Graph, tree: SpanningTree, selection: dict) -> None:
    """Raise ValueError unless the selection is valid for (g, tree)."""
    for v, cands in selection.items():
        if tree.degrees[v] != 1:
            raise ValueError(f"vertex {v} is not a leaf of the tree")
        if tree.neighbors[v][0] not in cands:
            raise ValueError(f"current parent of {v} missing from its candidates")
        nbrs = set(g.neighbors[v])
        for u in cands:
            if u not in nbrs:
                raise ValueError(f"candidate {u} is not a graph neighbour of {v}")
            if u in selection:
                raise ValueError(f"candidate {u} of {v} is itself selected")


def reconfigure(
    g: Graph, tree: SpanningTree, selection: dict, rng, validate: bool = True
) -> SpanningTree:
    """Detach each selected leaf and reattach it to a uniform candidate.

    Always returns a fresh tree (auditing needs both).  The result is a
    spanning tree by construction: candidates exclude selected leaves, so
    the unselected core stays a tree and each leaf hangs off it.  Only the
    rows of the moved leaves and of their old and new parents are new
    lists; every other row is shared with ``tree`` (trees are never
    mutated).
    """
    if validate:
        validate_selection(g, tree, selection)
    nbrs = tree.neighbors.copy()
    degs = tree.degrees.copy()
    if not selection:
        return SpanningTree(g, nbrs, degs)
    buf = rng.random(len(selection)).tolist()
    fresh = {nbrs[v][0] for v in selection}  # old parents: drop the moving leaves
    for p in fresh:
        row = [w for w in nbrs[p] if w not in selection]
        nbrs[p] = row
        degs[p] = len(row)
    for x, (v, cands) in zip(buf, selection.items()):
        p = cands[int(x * len(cands))]
        nbrs[v] = [p]
        if p in fresh:
            nbrs[p].append(v)
        else:
            nbrs[p] = nbrs[p] + [v]
            fresh.add(p)
        degs[p] += 1
    return SpanningTree(g, nbrs, degs)


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
        redone = reconfigure(g, tree, base.selection, rng, validate=False)
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
