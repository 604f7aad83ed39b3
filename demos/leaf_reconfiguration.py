"""Reversible leaf reconfiguration: the move, its audit, and why it is safe.

A random vertex subset marks leaves for reattachment; a degree split
(cube root of n) decides which rule supplies candidate parents.  The
selection recomputed on any reachable reconfigured tree is identical,
which is exactly what keeps a uniform input tree uniform after the move.

Run: python demos/leaf_reconfiguration.py
"""

from collections import Counter

import spanlab as sl


def main():
    master = 31415
    g = sl.complete_bipartite(3, 60)
    print(f"== Strategy on K_{{3,60}} (n = {g.n}) ==")
    tree = sl.sample_wilson(g, sl.stream(master, 0))
    subset = sl.sample_vertex_subset(g.n, sl.stream(master, 1))
    outcome = sl.select_leaves(g, tree, subset)
    sizes = sorted(len(p) for p in outcome.selection.values())
    print(f"  tree leaves: {len(tree.leaves())}, subset size: {len(subset)}")
    print(f"  branch: {outcome.branch}, selected leaves: {len(outcome.selection)}")
    if sizes:
        print(f"  candidate-parent set sizes: min {sizes[0]}, max {sizes[-1]}")

    print()
    print("== Branch split across trials ==")
    for label, graph in [("K_{3,60}", g), ("K_{8,200}", sl.complete_bipartite(8, 200))]:
        branches = Counter()
        for t in range(200):
            tr = sl.sample_wilson(graph, sl.stream(master, 2, t))
            su = sl.sample_vertex_subset(graph.n, sl.stream(master, 3, t))
            branches[sl.select_leaves(graph, tr, su).branch] += 1
        print(f"  {label}: {dict(branches)}")
    print("  (low degree <=> cube of the vertex degree at most n)")

    print()
    print("== Reversibility audit ==")
    audit = sl.audit_reversibility(g, tree, subset, trials=500, rng=sl.stream(master, 4))
    print(f"  500 reconfigurations of one (tree, subset): "
          f"{len(audit.violations)} violations")

    print()
    print("== The move preserves uniformity (K_{2,3}, 30k pipeline runs) ==")
    small = sl.complete_bipartite(2, 3)
    counts = Counter()
    for t in range(30000):
        redone, _ = sl.pipeline_reconfigured_tree(small, master, t)
        counts[redone.edge_key()] += 1
    from spanlab.stats import chi_square_uniform

    stat, pvalue = chi_square_uniform(counts, 12)
    print(f"  12 spanning trees, chi2 = {stat:.2f}, p = {pvalue:.3f}")


if __name__ == "__main__":
    main()
