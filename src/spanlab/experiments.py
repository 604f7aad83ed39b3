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

The pipeline keys a tree's shape class by its canonical code, but every
code class lies inside one degree-histogram class.  So a tree is coded
only when its histogram can collide: a tree whose histogram no other
trial of its run shares is a class of its own, keyed by that histogram,
and its code is never built unless per-trial digests ask for it.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain

import numpy as np

from . import rng as rnglib
from .canonical import code_from_parents, histogram_key
from .exact import CapExceededError, enumerate_spanning_trees
from .graphs import Graph, complete_bipartite
from .reconfig import sample_vertex_subset, select_leaves, reconfigure
from .sampling import SAMPLERS, sample_wilson
from .stats import (
    RESAMPLES,
    bootstrap_collisions,
    chi_square_uniform,
    collision_rate,
    fit_loglog_slope,
    percentile_interval,
)
from .trees import SpanningTree, parent_degrees


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
    leaves removed: its tree degree less the selected leaves hanging on it.
    """
    b_side = tuple(v for v in range(g.n) if v not in selection)
    offsets = dict.fromkeys(selection, 0)
    hanging = Counter(tree.parent[v] for v in selection)
    degs = tree.degrees
    for u in b_side:
        offsets[u] = degs[u] - hanging[u]
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
    indeg = Counter(picks)
    return histogram_key(
        [1 + offs[v] for v in inst.a_vertices]
        + [indeg[u] + offs[u] for u in inst.b_vertices]
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
    counts: Counter[tuple] = Counter()
    options = [inst.choices[v] for v in inst.a_vertices]
    depth = len(options)
    at = [-1] * depth
    i = 0
    while i >= 0:
        if i == depth:
            counts[tuple(sorted(hist.items()))] += 1
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


# How every CollisionReport's intervals are formed.
CI_METHOD = f"bootstrap percentile ({RESAMPLES} multinomial resamples)"


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
    bootstrap: np.ndarray | None = field(default=None, repr=False)


def _collision_report(counts: dict, trials: int, boots: np.ndarray) -> CollisionReport:
    """The report on one tally, given its bootstrap (``_bootstrap``)."""
    values = list(counts.values())
    rate = collision_rate(values, trials)
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
    counts = Counter(
        sample_degree_vector(inst, rnglib.stream(master, rnglib.MODEL, t))
        for t in range(trials)
    )
    boots = bootstrap_collisions(
        list(counts.values()), trials, rnglib.stream(master, rnglib.BOOTSTRAP)
    )
    return _collision_report(counts, trials, boots), master


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
    redone = reconfigure(g, tree, outcome.selection, rnglib.stream(master, rnglib.RECONF, t))
    return redone, outcome


def _pipeline_chunk(args):
    """Rows ``(histogram, code or held tree, branch)`` of trials ``lo:hi``.

    Isomorphic trees share a degree histogram, so a tree whose histogram
    no other trial has is a class of its own and its code is never read.
    Trees are held uncoded (``_hold``) until two trees of the chunk share
    a histogram; from then on the trees held so far and every later tree
    are coded here.  The tally (``_tally_head``) codes a tree still held
    only if its histogram repeats in another chunk of its head, or if
    every code is asked for."""
    g, master, lo, hi = args
    rows = []
    seen = set()  # the chunk's histograms, until the first repeat; then None
    for t in range(lo, hi):
        redone, outcome = pipeline_reconfigured_tree(g, master, t)
        hist = histogram_key(redone.degrees)
        if seen is not None and hist not in seen:
            seen.add(hist)
            shape = _hold(redone)
        else:
            if seen is not None:
                seen = None
                rows = [(h, _code_held(held), b) for h, held, b in rows]
            shape = code_from_parents(redone.parent, redone.root, redone.degrees)
        rows.append((hist, shape, outcome.branch))
    return rows


def _hold(tree: SpanningTree) -> tuple:
    """A tree kept uncoded: its parent entries as a typed array, and its root.

    Two bytes an entry while every vertex fits, no more than the tree's
    code would take (two bytes a vertex)."""
    parent = tree.parent
    return array("H" if len(parent) <= 1 << 16 else "i", parent), tree.root


def _code_held(held) -> bytes:
    """The canonical code of a tree kept by ``_hold``."""
    parent, root = held
    parent = parent.tolist()
    return code_from_parents(parent, root, parent_degrees(parent, root))


def _tally_head(parts, keep_rows: bool):
    """The histogram, code and branch ``Counter`` of one head's chunk rows,
    and the rows themselves, coded, when ``keep_rows`` (else None).

    ``parts`` yields the chunks' rows in trial order, so every counter
    keeps the insertion order one pass over all the trials gives it.  A
    held tree is coded only when ``keep_rows`` asks for every code or its
    histogram occurs in another trial; otherwise its histogram is its
    class key, which no other trial shares and no ``bytes`` code equals.
    Equal codes from different chunks become one object.
    """
    hists, branches, codes = Counter(), Counter(), Counter()
    interned = {}
    rows = []
    for hist, shape, branch in chain.from_iterable(parts):
        hists[hist] += 1
        branches[branch] += 1
        if type(shape) is bytes:
            shape = interned.setdefault(shape, shape)
        rows.append((hist, shape, branch))
    for i, (hist, shape, branch) in enumerate(rows):
        if type(shape) is not bytes:
            if keep_rows or hists[hist] > 1:
                code = _code_held(shape)
                shape = interned.setdefault(code, code)
            else:
                shape = hist
            rows[i] = (hist, shape, branch)  # drops the held tree
        codes[shape] += 1
    return (hists, codes, branches), rows if keep_rows else None


def _bootstrap(values: list, trials: int, seed: int, which: int) -> np.ndarray:
    """Bootstrap of one tally's class counts: ``which`` is 0 for
    histograms and 1 for codes."""
    return bootstrap_collisions(values, trials, rnglib.stream(seed, rnglib.BOOTSTRAP, which))


def _results(futures):
    """The results of ``futures`` in order, each future taken off the list
    as it is read (a done future holds its rows)."""
    while futures:
        yield futures.pop(0).result()


class _Later:
    """A task of the in-process pool at ``jobs=1``: it runs when its result
    is asked for, so tasks run in the order a pool would start them."""

    def __init__(self, fn, *args):
        self.fn, self.args = fn, args

    def result(self):
        return self.fn(*self.args)


def _run_chunked(worker, heads: list, trials: int, jobs: int, keep_rows: bool = False):
    """Pipeline trials ``0:trials`` of every head ``(g, seed)`` and the
    bootstraps of their tallies, on one pool of ``jobs`` processes (or in
    this process at ``jobs=1``).

    ``worker((g, seed, lo, hi))`` returns the rows of trials ``lo:hi``, each
    ``(histogram, code or held tree, branch)`` (``_pipeline_chunk``).  The
    chunks of every head are submitted up front, in the order of ``heads``.
    Once a head's chunks are in, its rows are tallied (``_tally_head``,
    which codes a held tree only if its histogram repeats in the head or
    ``keep_rows`` asks for every code) and dropped, and its two bootstraps
    go to the same pool with only the class counts, queued behind the
    chunks already submitted: no worker waits for this process between
    heads.  Returns one ``(counters, boots, rows)`` per head: the
    histogram, code and branch ``Counter``, the histogram and code
    bootstraps, and the coded rows in trial order when ``keep_rows`` (else
    None).
    """
    chunk = max(1, -(-trials // (jobs * 8)))
    bounds = [(lo, min(lo + chunk, trials)) for lo in range(0, trials, chunk)]
    with ProcessPoolExecutor(max_workers=jobs) if jobs > 1 else nullcontext() as pool:
        submit = pool.submit if pool is not None else _Later
        parts = [[submit(worker, (*head, lo, hi)) for lo, hi in bounds] for head in heads]
        pending = []
        for (_, seed), futures in zip(heads, parts):
            counters, rows = _tally_head(_results(futures), keep_rows)
            boots = [
                submit(_bootstrap, list(counter.values()), trials, seed, which)
                for which, counter in enumerate(counters[:2])
            ]
            pending.append((counters, boots, rows))
        return [(counters, [b.result() for b in boots], rows) for counters, boots, rows in pending]


def _pipeline_reports(counters, boots, trials: int) -> tuple[CollisionReport, CollisionReport]:
    """Histogram and code reports of one head of ``_run_chunked``."""
    hist_report = _collision_report(counters[0], trials, boots[0])
    code_report = _collision_report(counters[1], trials, boots[1])
    if code_report.colliding_pairs > hist_report.colliding_pairs:
        raise AssertionError(
            "canonical-code collisions exceeded histogram collisions; "
            "codes no longer refine histograms"
        )
    return hist_report, code_report


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
    if trials < 2:
        raise ValueError("need at least two trials to form pairs")
    master = rnglib.resolve_seed(seed)
    [(counters, boots, rows)] = _run_chunked(
        _pipeline_chunk, [(g, master)], trials, jobs, keep_rows=keep_digests
    )
    hist_report, code_report = _pipeline_reports(counters, boots, trials)
    return PipelineCollisionReport(
        seed=master,
        trials=trials,
        branch_counts=dict(sorted(counters[2].items())),
        histograms=hist_report,
        codes=code_report,
        digests=rows,
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
    heads = [
        (
            complete_bipartite(d, n - d),
            int(rnglib.stream(master, rnglib.GENERATE, i).integers(0, 2**63)),
        )
        for i, n in enumerate(sizes)
    ]
    # Largest size first: its chunks are the longest, so the pool does not
    # end on them.
    tallies = _run_chunked(_pipeline_chunk, heads[::-1], trials, jobs)[::-1]
    rows = [
        ScalingRow(n, trials, *_pipeline_reports(counters, boots, trials))
        for n, (counters, boots, _) in zip(sizes, tallies)
    ]
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
        counts = Counter(map(tuple, draws.tolist()))
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

    def rejected(self) -> list[str]:
        """Samplers whose fit p-value falls below 1e-3."""
        return [row.sampler for row in self.rows if row.pvalue < 1e-3]


def uniformity_experiment(
    g: Graph,
    trials: int,
    seed: int | None = None,
    cap: int = 75,
) -> UniformityReport:
    """Chi-square fit of each sampler's trees, and the pipeline's, to exact uniform.

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
        counts = Counter(draw(g, rng).edge_key() for _ in range(trials))
        stat, pvalue = chi_square_uniform(counts, support)
        rows.append(UniformityRow(name, trials, support, stat, pvalue))
    counts = Counter(
        pipeline_reconfigured_tree(g, master, t)[0].edge_key() for t in range(trials)
    )
    stat, pvalue = chi_square_uniform(counts, support)
    rows.append(UniformityRow("pipeline", trials, support, stat, pvalue))
    return UniformityReport(seed=master, support=support, rows=rows)

