"""Monte Carlo experiments: degree-vector anticoncentration and uniformity.

Maximum point masses are bounded through pairwise collisions: the
collision probability sum(p^2) is estimable from quadratically many
sample pairs and (max p)^2 <= sum(p^2), so sqrt of the collision estimate
is a certified-direction proxy for the largest point mass.  Confidence
intervals come from bootstrap resampling (collision counts are
U-statistics).

Every experiment takes one master seed; per-trial substreams make trial
``t`` reproducible in isolation and let trials run on worker processes
without changing any reported number.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import rng as rnglib
from .canonical import code_from_neighbors, histogram_key
from .exact import CapExceededError, enumerate_spanning_trees
from .graphs import Graph, complete_bipartite
from .reconfig import sample_vertex_subset, select_leaves, reconfigure
from .sampling import SAMPLERS, sample_wilson
from .stats import (
    bootstrap_collisions,
    chi_square_uniform,
    collision_rate,
    fit_loglog_slope,
    percentile_interval,
)
from .trees import SpanningTree


# ---------------------------------------------------------------------------
# The bipartite one-out degree model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BipartiteOneOutInstance:
    """One side keeps a single random incident edge; degrees get offsets.

    ``choices[v]`` lists the vertices of side B available to ``v`` in side
    A.  The sampled statistic is the offset degree histogram over all
    vertices: A-vertices contribute at 1 + offset, B-vertices at their
    random in-count + offset.
    """

    a_vertices: tuple[int, ...]
    b_vertices: tuple[int, ...]
    choices: dict[int, tuple[int, ...]]
    offsets: dict[int, int]

    def __post_init__(self):
        aset = set(self.a_vertices)
        bset = set(self.b_vertices)
        if aset & bset:
            raise ValueError("instance sides must be disjoint")
        for v in self.a_vertices:
            opts = self.choices.get(v, ())
            if not opts:
                raise ValueError(f"A-vertex {v} has no incident edge")
            if not bset.issuperset(opts):
                raise ValueError(f"choices of {v} leave side B")

    @property
    def n(self) -> int:
        return len(self.a_vertices) + len(self.b_vertices)

    @property
    def a_fraction(self) -> float:
        return len(self.a_vertices) / self.n

    @property
    def min_a_degree(self) -> int:
        return min(len(self.choices[v]) for v in self.a_vertices)

    def outcome_count(self) -> int:
        total = 1
        for v in self.a_vertices:
            total *= len(self.choices[v])
        return total


def instance_from_selection(
    g: Graph, tree: SpanningTree, selection: dict
) -> BipartiteOneOutInstance:
    """The model instance induced by a leaf selection.

    Side A is the selected leaves with their candidate parents; side B is
    everything else, offset by its degree in the tree with the selected
    leaves removed.
    """
    b_side = tuple(v for v in range(g.n) if v not in selection)
    offsets = dict.fromkeys(selection, 0)
    for u in b_side:
        offsets[u] = sum(1 for w in tree.neighbors[u] if w not in selection)
    return BipartiteOneOutInstance(
        a_vertices=tuple(selection),
        b_vertices=b_side,
        choices=dict(selection),
        offsets=offsets,
    )


def sample_choices(inst: BipartiteOneOutInstance, rng) -> list[int]:
    """One uniform incident edge per A-vertex (the raw randomness)."""
    buf = rng.random(max(len(inst.a_vertices), 1)).tolist()
    return [
        inst.choices[v][int(buf[i] * len(inst.choices[v]))]
        for i, v in enumerate(inst.a_vertices)
    ]


def sample_degree_vector(inst: BipartiteOneOutInstance, rng) -> tuple:
    """Digest of the offset degree histogram of one sampled subgraph."""
    picks = sample_choices(inst, rng)
    return _vector_from_picks(inst, picks)


def _vector_from_picks(inst: BipartiteOneOutInstance, picks) -> tuple:
    offs = inst.offsets
    indeg: dict[int, int] = {}
    for u in picks:
        indeg[u] = indeg.get(u, 0) + 1
    return histogram_key(
        [1 + offs[v] for v in inst.a_vertices]
        + [indeg.get(u, 0) + offs[u] for u in inst.b_vertices]
    )


def exact_vector_distribution(
    inst: BipartiteOneOutInstance, cap: int = 2**20
) -> dict[tuple, Fraction]:
    """Exhaustive law of the degree-vector digest (all choices equal mass)."""
    outcomes = inst.outcome_count()
    if outcomes > cap:
        raise CapExceededError(f"{outcomes} outcomes exceed the cap of {cap}")
    offs = inst.offsets
    hist: dict[int, int] = {}

    def bump(k, delta):
        c = hist.get(k, 0) + delta
        if c:
            hist[k] = c
        else:
            del hist[k]

    for v in inst.a_vertices:
        bump(1 + offs[v], +1)
    indeg = {u: 0 for u in inst.b_vertices}
    for u in inst.b_vertices:
        bump(offs[u], +1)

    def pick(u):
        old = indeg[u] + offs[u]
        bump(old, -1)
        bump(old + 1, +1)
        indeg[u] += 1

    def unpick(u):
        indeg[u] -= 1
        old = indeg[u] + offs[u]
        bump(old + 1, -1)
        bump(old, +1)

    # Depth-first over the choice tuples on an explicit stack: at[i] is the
    # index of the choice level i holds, -1 before its first one.
    counts: dict[tuple, int] = {}
    options = [inst.choices[v] for v in inst.a_vertices]
    depth = len(options)
    at = [-1] * depth
    i = 0
    while i >= 0:
        if i == depth:
            key = tuple(sorted(hist.items()))
            counts[key] = counts.get(key, 0) + 1
            i -= 1
            continue
        opts = options[i]
        k = at[i]
        if k >= 0:
            unpick(opts[k])
        k += 1
        if k == len(opts):
            at[i] = -1
            i -= 1
        else:
            at[i] = k
            pick(opts[k])
            i += 1

    unit = Fraction(1, outcomes)
    return {key: c * unit for key, c in counts.items()}


# ---------------------------------------------------------------------------
# Collision reports
# ---------------------------------------------------------------------------


@dataclass
class CollisionReport:
    """Pairwise-collision estimate of sum(p^2) with bootstrap intervals."""

    trials: int
    distinct: int
    colliding_pairs: int
    collision: float
    collision_ci95: tuple[float, float]
    collision_ci99: tuple[float, float]
    max_mass_bound: float  # sqrt of the collision estimate
    max_class_count: int
    ci_method: str = "bootstrap percentile (1000 multinomial resamples)"
    bootstrap: np.ndarray | None = field(default=None, repr=False)


def _collision_report(counts: dict, trials: int, boot_rng) -> CollisionReport:
    values = list(counts.values())
    rate = collision_rate(values, trials)
    boots = bootstrap_collisions(values, trials, boot_rng)
    ci95 = percentile_interval(boots, 0.95)
    ci99 = percentile_interval(boots, 0.99)
    return CollisionReport(
        trials=trials,
        distinct=len(values),
        colliding_pairs=sum(c * (c - 1) for c in values) // 2,
        collision=rate,
        collision_ci95=ci95,
        collision_ci99=ci99,
        max_mass_bound=math.sqrt(rate),
        max_class_count=max(values) if values else 0,
        bootstrap=boots,
    )


def estimate_max_point_mass(
    inst: BipartiteOneOutInstance, trials: int, seed: int | None = None
) -> tuple[CollisionReport, int]:
    """Sample degree vectors and bound their maximum point mass."""
    if trials < 2:
        raise ValueError("need at least two trials to form pairs")
    master = rnglib.resolve_seed(seed)
    counts: dict[tuple, int] = {}
    for t in range(trials):
        key = sample_degree_vector(inst, rnglib.stream(master, rnglib.MODEL, t))
        counts[key] = counts.get(key, 0) + 1
    report = _collision_report(counts, trials, rnglib.stream(master, rnglib.BOOTSTRAP))
    return report, master


# ---------------------------------------------------------------------------
# The full reconfiguration pipeline
# ---------------------------------------------------------------------------


def pipeline_reconfigured_tree(g: Graph, master: int, t: int):
    """Trial t of the pipeline: uniform tree -> random subset -> reconfigure.

    Returns the reconfigured tree and the strategy outcome.  The subset
    stream is separate from the tree stream (their independence is what
    keeps the reconfigured tree uniform), and the new-parent stream is
    separate again.
    """
    tree = sample_wilson(g, rnglib.stream(master, rnglib.TREE, t))
    subset = sample_vertex_subset(g.n, rnglib.stream(master, rnglib.SUBSET, t))
    outcome = select_leaves(g, tree, subset)
    redone = reconfigure(
        g, tree, outcome.selection, rnglib.stream(master, rnglib.RECONF, t),
        validate=False,
    )
    return redone, outcome


def _pipeline_chunk(args):
    g, master, lo, hi = args
    rows = []
    for t in range(lo, hi):
        redone, outcome = pipeline_reconfigured_tree(g, master, t)
        rows.append(
            (
                histogram_key(redone.degrees),
                code_from_neighbors(redone.neighbors),
                outcome.branch,
            )
        )
    return rows


def _run_chunked(worker, args_builder, trials: int, jobs: int):
    if jobs <= 1:
        return worker(args_builder(0, trials))
    chunk = max(1, -(-trials // (jobs * 8)))
    tasks = [
        args_builder(lo, min(lo + chunk, trials)) for lo in range(0, trials, chunk)
    ]
    rows = []
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        for part in pool.map(worker, tasks):
            rows.extend(part)
    return rows


@dataclass
class PipelineCollisionReport:
    seed: int
    trials: int
    branch_counts: dict[str, int]
    histograms: CollisionReport
    codes: CollisionReport
    digests: list | None = None


def pipeline_collision(
    g: Graph,
    trials: int,
    seed: int | None = None,
    jobs: int = 1,
    keep_digests: bool = False,
) -> PipelineCollisionReport:
    """Collision estimates for the reconfigured tree's degree histogram and
    canonical code.  Code collisions can never exceed histogram collisions
    (isomorphic trees share a histogram)."""
    master = rnglib.resolve_seed(seed)
    rows = _run_chunked(
        _pipeline_chunk, lambda lo, hi: (g, master, lo, hi), trials, jobs
    )
    hist_counts: dict[tuple, int] = {}
    code_counts: dict[bytes, int] = {}
    branches: dict[str, int] = {}
    for hist_key, code, branch in rows:
        hist_counts[hist_key] = hist_counts.get(hist_key, 0) + 1
        code_counts[code] = code_counts.get(code, 0) + 1
        branches[branch] = branches.get(branch, 0) + 1
    hist_report = _collision_report(
        hist_counts, trials, rnglib.stream(master, rnglib.BOOTSTRAP, 0)
    )
    code_report = _collision_report(
        code_counts, trials, rnglib.stream(master, rnglib.BOOTSTRAP, 1)
    )
    if code_report.colliding_pairs > hist_report.colliding_pairs:
        raise AssertionError(
            "canonical-code collisions exceeded histogram collisions; "
            "codes no longer refine histograms"
        )
    return PipelineCollisionReport(
        seed=master,
        trials=trials,
        branch_counts=dict(sorted(branches.items())),
        histograms=hist_report,
        codes=code_report,
        digests=rows if keep_digests else None,
    )


# ---------------------------------------------------------------------------
# Scaling experiments (exploratory: reported, not proof)
# ---------------------------------------------------------------------------


@dataclass
class ScalingRow:
    n: int
    trials: int
    histograms: CollisionReport
    codes: CollisionReport


@dataclass
class ScalingReport:
    seed: int
    d: int
    sizes: tuple[int, ...]
    trials: int
    rows: list[ScalingRow]
    code_slope: float | None  # None when some size saw no collision
    code_slope_ci95: tuple[float, float]
    histogram_slope: float | None


def check_sizes(d: int, sizes) -> None:
    """Raise ValueError unless there are at least two sizes, every size
    exceeds 2d, and the sizes strictly increase (a slope fit needs it)."""
    if len(sizes) < 2:
        raise ValueError("a slope fit needs at least two sizes")
    if any(n <= 2 * d for n in sizes):
        raise ValueError("every size must exceed 2d")
    if any(a >= b for a, b in zip(sizes, sizes[1:])):
        raise ValueError("sizes must be increasing, with no size repeated")


def scaling_experiment(
    d: int,
    sizes,
    trials: int,
    seed: int | None = None,
    jobs: int = 1,
) -> ScalingReport:
    """Pipeline collisions on complete bipartite graphs of growing order.

    Fits the log-log slope of the max-mass bound against n, for canonical
    codes (the shape statistic) and degree histograms.  The slope CI is a
    joint bootstrap across sizes.
    """
    sizes = tuple(sizes)
    check_sizes(d, sizes)
    master = rnglib.resolve_seed(seed)
    rows = []
    for i, n in enumerate(sizes):
        g = complete_bipartite(d, n - d)
        per_size_seed = int(rnglib.stream(master, rnglib.GENERATE, i).integers(0, 2**63))
        sub = pipeline_collision(g, trials, seed=per_size_seed, jobs=jobs)
        rows.append(ScalingRow(n=n, trials=trials, histograms=sub.histograms, codes=sub.codes))
    code_slope, _ = fit_loglog_slope(sizes, [r.codes.max_mass_bound for r in rows])
    hist_slope, _ = fit_loglog_slope(sizes, [r.histograms.max_mass_bound for r in rows])
    boots = np.vstack([r.codes.bootstrap for r in rows])
    floor = 1.0 / (trials * (trials - 1))
    lx = np.log(np.asarray(sizes, dtype=float))
    # One fit for every bootstrap column: polyfit takes a 2-D y.
    slopes = np.polyfit(lx, 0.5 * np.log(np.maximum(boots, floor)), 1)[0]
    return ScalingReport(
        seed=master,
        d=d,
        sizes=sizes,
        trials=trials,
        rows=rows,
        code_slope=code_slope,
        code_slope_ci95=percentile_interval(slopes, 0.95),
        histogram_slope=hist_slope,
    )


@dataclass
class BaselineRow:
    n: int
    collision: float
    max_mass_bound: float
    max_class_frequency: float


@dataclass
class BaselineReport:
    seed: int
    d: int
    sizes: tuple[int, ...]
    trials: int
    rows: list[BaselineRow]
    max_frequency_slope: float
    collision_slope: float | None  # None when some size saw no collision


def multinomial_baseline(
    d: int, sizes, trials: int, seed: int | None = None
) -> BaselineReport:
    """Ball-throwing stand-in for the bipartite leaf-attachment heuristic.

    Throws n - 2d balls into d equally likely bins (2d stands in for the
    handful of vertices used up by the connecting subtree) and tracks the
    sorted count vector.  Its largest point mass scales like
    n^(-(d-1)/2), which the fitted max-frequency slope should reproduce.
    """
    sizes = tuple(sizes)
    master = rnglib.resolve_seed(seed)
    rows = []
    for i, n in enumerate(sizes):
        balls = n - 2 * d
        if balls < 1:
            raise ValueError(f"size {n} leaves no balls to throw")
        rng = rnglib.stream(master, rnglib.MODEL, i)
        draws = rng.multinomial(balls, [1.0 / d] * d, size=trials)
        draws.sort(axis=1)
        counts: dict[tuple, int] = {}
        for row in map(tuple, draws.tolist()):
            counts[row] = counts.get(row, 0) + 1
        rate = collision_rate(counts.values(), trials)
        rows.append(
            BaselineRow(
                n=n,
                collision=rate,
                max_mass_bound=math.sqrt(rate),
                max_class_frequency=max(counts.values()) / trials,
            )
        )
    freq_slope, _ = fit_loglog_slope(sizes, [r.max_class_frequency for r in rows])
    coll_slope, _ = fit_loglog_slope(sizes, [r.collision for r in rows])
    return BaselineReport(
        seed=master,
        d=d,
        sizes=sizes,
        trials=trials,
        rows=rows,
        max_frequency_slope=freq_slope,
        collision_slope=coll_slope,
    )


# ---------------------------------------------------------------------------
# Uniformity and leaf-count experiment drivers
# ---------------------------------------------------------------------------


@dataclass
class UniformityRow:
    sampler: str
    trials: int
    support: int
    statistic: float
    pvalue: float


@dataclass
class UniformityReport:
    seed: int
    support: int
    rows: list[UniformityRow]

    def rejected(self, alpha: float = 1e-3) -> list[str]:
        return [row.sampler for row in self.rows if row.pvalue < alpha]


def uniformity_experiment(
    g: Graph,
    trials: int,
    seed: int | None = None,
    include_pipeline: bool = True,
    cap: int = 75,
) -> UniformityReport:
    """Chi-square goodness of fit of sampled trees against exact uniform.

    The support comes from the enumeration oracle (graphs above ``cap``
    spanning trees are refused), so the test is against the true uniform
    law, not a sampled reference.
    """
    master = rnglib.resolve_seed(seed)
    trees = enumerate_spanning_trees(g, cap)
    support = len(trees)
    rows = []
    for idx, (name, draw) in enumerate(SAMPLERS.items()):
        rng = rnglib.stream(master, rnglib.TREE, idx)
        counts: dict[tuple, int] = {}
        for _ in range(trials):
            key = draw(g, rng).edge_key()
            counts[key] = counts.get(key, 0) + 1
        stat, pvalue = chi_square_uniform(counts, support)
        rows.append(UniformityRow(name, trials, support, stat, pvalue))
    if include_pipeline:
        counts = {}
        for t in range(trials):
            redone, _ = pipeline_reconfigured_tree(g, master, t)
            key = redone.edge_key()
            counts[key] = counts.get(key, 0) + 1
        stat, pvalue = chi_square_uniform(counts, support)
        rows.append(UniformityRow("pipeline", trials, support, stat, pvalue))
    return UniformityReport(seed=master, support=support, rows=rows)

