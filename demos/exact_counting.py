"""Exact spanning-tree arithmetic, end to end.

Counts spanning trees through determinants by multi-modular elimination
+ CRT, Hadamard-bounded, lists them by contraction/deletion, and sweeps
every one-out digraph of a small graph to show that each spanning tree
is the support of exactly n-1 of them.

Run: python demos/exact_counting.py
"""

import spanlab as sl


def main():
    print("== Complete graphs: the n^(n-2) ladder ==")
    for n in range(3, 10):
        count = sl.count_spanning_trees(sl.complete_graph(n))
        print(f"  K_{n}: {count}  (= {n}^{n - 2} = {n ** (n - 2)})")

    print()
    print("== Degree-product upper bound: count * (n-1) <= prod(deg) ==")
    for label, g in [
        ("K_4", sl.complete_graph(4)),
        ("C_5", sl.cycle_graph(5)),
        ("K_{2,3}", sl.complete_bipartite(2, 3)),
        ("K_{3,20}", sl.complete_bipartite(3, 20)),
    ]:
        count = sl.count_spanning_trees(g)
        dprod = sl.degree_product(g)
        ok = sl.kostochka_upper_bound_holds(g, count)
        print(f"  {label}: {count} * {g.n - 1} = {count * (g.n - 1)} <= {dprod}  [{ok}]")

    print()
    print("== Enumeration agrees with the determinant ==")
    g = sl.complete_bipartite(2, 3)
    trees = sl.enumerate_spanning_trees(g, cap=100)
    print(f"  K_{{2,3}}: determinant says {sl.count_spanning_trees(g)}, "
          f"enumeration lists {len(trees)} distinct trees")
    for t in trees[:3]:
        print(f"    e.g. {t.edges()}")

    print()
    print("== One-out digraphs: every tree is hit exactly n-1 times ==")
    tri = sl.cycle_graph(3)
    census = sl.one_out_census(tri)
    print(f"  triangle: {sl.degree_product(tri)} digraphs total")
    for edges, count in sorted(census.items()):
        print(f"    tree {list(edges)} <- {count} digraphs (n-1 = {tri.n - 1})")
    accepted = sum(census.values())
    print(f"  {accepted} of 8 digraphs have tree support "
          f"(acceptance rate {accepted / 8:.2f})")


if __name__ == "__main__":
    main()
