"""Three routes to a uniform spanning tree, cross-checked.

Loop-erased walks, first-entry walks, and one-out rejection all target
the same uniform law; a chi-square test against the enumerated support
confirms it.  Leaf statistics show the one-out expectation bound (at
least n/4 leaves on average for min degree >= 2) and the roughly n/e
leaves a uniform tree carries.

Run: python demos/sampler_gallery.py
"""

from fractions import Fraction

import spanlab as sl


def main():
    master = 2024
    print("== Uniformity on K_4 (16 spanning trees), 20k samples each ==")
    rep = sl.uniformity_experiment(sl.complete_graph(4), trials=20000, seed=master)
    for row in rep.rows:
        print(f"  {row.sampler:>8}: chi2 = {row.statistic:7.2f}   p = {row.pvalue:.3f}")
    print(f"  rejected at 1e-3: {rep.rejected() or 'none'}")

    print()
    print("== Rejection sampling feels the degree product ==")
    for label, g in [("K_4", sl.complete_graph(4)),
                     ("K_{3,8}", sl.complete_bipartite(3, 8))]:
        rng = sl.stream(master, 1)
        attempts = [sl.sample_rejection_one_out(g, rng)[1] for _ in range(2000)]
        predicted = sl.degree_product(g) / (sl.count_spanning_trees(g) * (g.n - 1))
        print(f"  {label}: mean attempts {sum(attempts) / len(attempts):6.2f}   "
              f"predicted d(G)/((n-1) tau) = {predicted:6.2f}")

    print()
    print("== Leaf statistics on K_30 ==")
    g = sl.complete_graph(30)
    report = sl.leaf_stats(g, trials=2000, sampler="wilson", rng=sl.stream(master, 2))
    expected = report.expected_one_out_leaves
    print(f"  exact one-out leaf expectation: {expected} "
          f"(~{float(expected):.2f}, bound n/4 = {g.n / 4})")
    assert 4 * expected >= g.n
    print(f"  sampled tree leaves: mean {report.mean_leaves:.2f} "
          f"(n/e ~ {g.n / 2.718281828:.2f}), min {report.min_leaves}, "
          f"max {report.max_leaves}")

    print()
    print("== One-out leaf probabilities are exact rationals ==")
    k5 = sl.complete_graph(5)
    p = sl.one_out_leaf_probability(k5, 0)
    print(f"  K_5 vertex: {p} = (1 - 1/4)^4 = {Fraction(81, 256)}")


if __name__ == "__main__":
    main()
