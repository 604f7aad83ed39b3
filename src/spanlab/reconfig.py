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


@dataclass(frozen=True)
class VertexSubset:
    """A subset of vertex ids."""

    vertices: frozenset[int]

    def __contains__(self, v: int) -> bool:
        return v in self.vertices

    def __len__(self) -> int:
        return len(self.vertices)


def sample_vertex_subset(n: int, rng) -> VertexSubset:
    """Include each vertex independently with one fair bit."""
    mask = rng.random(n) < 0.5
    return VertexSubset(frozenset(int(v) for v in mask.nonzero()[0]))


@dataclass(frozen=True)
class LeafSelection:
    """Reconfigurable leaves plus their candidate parent sets.

    Invariants: every selected vertex is a leaf of the tree; its current
    parent is among its candidates; candidates never include selected
    leaves.
    """

    leaves: tuple[int, ...]
    parents: dict[int, tuple[int, ...]]

    def __len__(self) -> int:
        return len(self.leaves)


@dataclass(frozen=True)
class StrategyOutcome:
    branch: str
    selection: LeafSelection
    low_count: int
    high_count: int | None  # None when the low branch was taken


def may_parent(
    g: Graph, tree: SpanningTree, subset: VertexSubset, branch: str
) -> list[bool]:
    """Per vertex, whether it may be a parent of a leaf selected on ``branch``.

    ``u`` may be a parent iff it lies outside the subset or is safe for
    the branch.  Low-degree branch: safe means deg(u)^3 > n (such vertices
    are never selected there).  High-degree branch: safe means ``u`` keeps
    at least two tree neighbours outside the subset, so it stays an inner
    vertex whatever the selected leaves do.
    """
    members = subset.vertices
    ok = [True] * g.n
    if branch == LOW_BRANCH:
        n = g.n
        degs = g.degrees
        for u in members:
            ok[u] = degs[u] ** 3 > n
    else:
        tree_nbrs = tree.neighbors
        for u in members:
            outside = 0
            for w in tree_nbrs[u]:
                if w not in members:
                    outside += 1
            ok[u] = outside >= 2
    return ok


def select_leaves(g: Graph, tree: SpanningTree, subset: VertexSubset) -> StrategyOutcome:
    """Pick the reconfigurable leaves of ``tree`` for the given subset.

    A leaf in the subset is selected when its current parent may stay a
    parent and at least a share of its neighbourhood may be a parent (see
    ``may_parent``).  The low-degree pass (leaves with deg^3 <= n, half
    the neighbourhood) wins when it captures at least n/256 leaves;
    otherwise the high-degree pass (quarter-neighbourhood threshold) is
    used.
    """
    n = g.n
    degs = g.degrees
    members = subset.vertices
    low_leaves: list[int] = []
    high_leaves: list[int] = []
    for v in tree.leaves():
        if v in members:
            (high_leaves if degs[v] ** 3 > n else low_leaves).append(v)

    low = _select(g, tree, low_leaves, may_parent(g, tree, subset, LOW_BRANCH), 2)
    if SELECTION_DENOMINATOR * len(low) >= n:
        return StrategyOutcome(LOW_BRANCH, low, len(low), None)
    # The outside counts behind the high rule are only paid for here.
    high = _select(g, tree, high_leaves, may_parent(g, tree, subset, HIGH_BRANCH), 4)
    return StrategyOutcome(HIGH_BRANCH, high, len(low), len(high))


def _select(g: Graph, tree: SpanningTree, leaves, ok, share: int) -> LeafSelection:
    """The leaves whose parent is ``ok`` and that keep at least 1/share of
    their neighbours ``ok``, with those neighbours as candidates."""
    gn = g.neighbors
    degs = g.degrees
    tree_nbrs = tree.neighbors
    chosen: list[int] = []
    parents: dict[int, tuple[int, ...]] = {}
    for v in leaves:
        if not ok[tree_nbrs[v][0]]:
            continue
        cands = tuple(u for u in gn[v] if ok[u])
        if share * len(cands) >= degs[v]:
            chosen.append(v)
            parents[v] = cands
    return LeafSelection(tuple(chosen), parents)


def validate_selection(g: Graph, tree: SpanningTree, selection: LeafSelection) -> None:
    """Raise ValueError unless the selection is valid for (g, tree)."""
    chosen = set(selection.leaves)
    if len(chosen) != len(selection.leaves):
        raise ValueError("selection lists a leaf twice")
    for v in selection.leaves:
        if tree.degrees[v] != 1:
            raise ValueError(f"vertex {v} is not a leaf of the tree")
        cands = selection.parents.get(v, ())
        if tree.neighbors[v][0] not in cands:
            raise ValueError(f"current parent of {v} missing from its candidates")
        nbrs = set(g.neighbors[v])
        for u in cands:
            if u not in nbrs:
                raise ValueError(f"candidate {u} is not a graph neighbour of {v}")
            if u in chosen:
                raise ValueError(f"candidate {u} of {v} is itself selected")


def reconfigure(
    g: Graph,
    tree: SpanningTree,
    selection: LeafSelection,
    rng,
    validate: bool = True,
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
    chosen = selection.leaves
    if not chosen:
        return SpanningTree(g, nbrs, degs)
    buf = rng.random(len(chosen)).tolist()
    moving = set(chosen)
    fresh = {nbrs[v][0] for v in chosen}  # old parents: drop the moving leaves
    for p in fresh:
        row = [w for w in nbrs[p] if w not in moving]
        nbrs[p] = row
        degs[p] = len(row)
    parents = selection.parents
    for i, v in enumerate(chosen):
        cands = parents[v]
        p = cands[int(buf[i] * len(cands))]
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
    subset: VertexSubset,
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
    if set(a.selection.leaves) != set(b.selection.leaves):
        return {
            "field": "leaves",
            "before": sorted(a.selection.leaves),
            "after": sorted(b.selection.leaves),
        }
    for v in a.selection.leaves:
        if a.selection.parents[v] != b.selection.parents[v]:
            return {
                "field": f"parents[{v}]",
                "before": list(a.selection.parents[v]),
                "after": list(b.selection.parents[v]),
            }
    return None
