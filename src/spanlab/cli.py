"""Command-line entry point: graph input, dispatch, and report output.

Subcommands: count-exact, enumerate, sample, reconfigure, count-noniso,
experiment {lemma35|pipeline|conjecture|leaves|uniformity}.  Exit codes:
0 success, 1 domain error, 2 usage error.  Reports echo the resolved
seed; identical (config, seed) pairs produce byte-identical payloads
(timestamps live in a separate field).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import statistics
import sys
from datetime import datetime, timezone

from . import __version__
from . import rng as rnglib
from .canonical import CapExceededError, count_non_isomorphic
from .exact import (
    MatrixTooLargeError,
    count_spanning_trees,
    degree_product,
    enumerate_spanning_trees,
    kostochka_upper_bound_holds,
)
from .experiments import (
    CI_METHOD,
    check_sizes,
    estimate_max_point_mass,
    instance_from_selection,
    multinomial_baseline,
    pipeline_collision,
    scaling_experiment,
    uniformity_experiment,
)
from .graphs import GraphError, GraphSpec, generate, read_graph_file
from .reconfig import audit_reversibility, sample_vertex_subset, select_leaves
from .sampling import (
    SAMPLERS,
    AttemptsExhaustedError,
    leaf_stats,
    sample_rejection_one_out,
    sample_wilson,
)
from .trees import NotATreeError


class EmptySelectionError(ValueError):
    """The leaf selection an experiment builds its instance from is empty."""

    code = "EmptySelection"


# Only classes that carry a typed ``code``: any other exception is a bug
# and must surface as one, not as a JSON domain error.
DOMAIN_ERRORS = (
    GraphError,
    CapExceededError,
    AttemptsExhaustedError,
    NotATreeError,
    MatrixTooLargeError,
    EmptySelectionError,
)


# Argument types: argparse turns their ValueError into a usage error (exit 2).


def u64(text: str) -> int:
    return rnglib.resolve_seed(int(text))


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError(f"{value} is not positive")
    return value


def at_least_two(text: str) -> int:
    """Trial count of a collision estimate, which needs a pair of samples."""
    value = int(text)
    if value < 2:
        raise ValueError(f"{value} is below 2")
    return value


def job_count(text: str) -> int:
    """Worker processes: at least 1 and at most one per CPU."""
    value = positive_int(text)
    cpus = os.cpu_count() or 1
    if value > cpus:
        raise ValueError(f"{value} exceeds the {cpus} CPUs of this machine")
    return value


def size_list(text: str) -> tuple[int, ...]:
    """Comma-separated positive graph orders."""
    return tuple(positive_int(part) for part in text.split(","))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spanlab",
        description="Spanning-tree sampling, exact counting, leaf reconfiguration, "
        "and degree-sequence anticoncentration experiments.",
    )
    parser.add_argument("--version", action="version", version=f"spanlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, trials=positive_int):
        p.add_argument("--graph", metavar="FILE", help="graph text file (n m header)")
        p.add_argument(
            "--gen",
            metavar="SPEC",
            help="generated family: complete:n | bipartite:a,b | regular:d,n | gnp:n,p,d",
        )
        p.add_argument("--seed", type=u64, default=None, help="64-bit master seed")
        p.add_argument("--trials", type=trials, default=1000)
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", metavar="PATH", help="write the report here instead of stdout")
        p.add_argument("--jobs", type=job_count, default=1, help="worker processes for trial loops")

    p = sub.add_parser("count-exact", help="exact spanning-tree count and degree-product bound")
    common(p)

    p = sub.add_parser("enumerate", help="list every spanning tree (cap-guarded)")
    common(p)
    p.add_argument("--cap", type=positive_int, default=10**5)

    p = sub.add_parser("sample", help="sample uniform spanning trees")
    common(p)
    p.add_argument("--sampler", choices=sorted(SAMPLERS), default="wilson")

    p = sub.add_parser("reconfigure", help="run and audit leaf reconfigurations")
    common(p)
    p.add_argument(
        "--dump-selections",
        action="store_true",
        help="include every selected leaf and its candidate parents",
    )

    p = sub.add_parser("count-noniso", help="count non-isomorphic spanning trees")
    common(p)
    p.add_argument("--mode", choices=("exact", "sampled"), default="exact")
    p.add_argument("--budget", type=positive_int, default=10**4)

    p = sub.add_parser("experiment", help="Monte Carlo experiment suites")
    p.add_argument(
        "kind", choices=("lemma35", "pipeline", "conjecture", "leaves", "uniformity")
    )
    common(p, trials=at_least_two)
    p.add_argument("--sampler", choices=sorted(SAMPLERS), default="wilson")
    p.add_argument("--d", type=positive_int, default=3, help="small-side size for conjecture runs")
    p.add_argument(
        "--sizes",
        type=size_list,
        default="50,100,200,400",
        help="comma-separated graph orders for conjecture runs",
    )
    p.add_argument(
        "--per-trial", action="store_true", help="include per-trial digests in the report"
    )
    p.add_argument("--cap", type=positive_int, default=75, help="uniformity support cap")
    return parser


def _load_graph(args, parser, seed: int):
    if args.graph and args.gen:
        parser.error("give either --graph or --gen, not both")
    if args.graph:
        return read_graph_file(args.graph), f"file:{args.graph}"
    if args.gen:
        try:
            spec = GraphSpec.parse(args.gen)
        except GraphError as exc:
            parser.error(str(exc))
        return generate(spec, seed), spec.describe()
    parser.error("a graph is required: pass --graph FILE or --gen SPEC")


# ---------------------------------------------------------------------------
# Subcommand handlers: return (payload, csv_rows)
# ---------------------------------------------------------------------------


def _run_count_exact(args, parser, seed):
    g, desc = _load_graph(args, parser, seed)
    count = count_spanning_trees(g)
    payload = {
        "graph": desc,
        "n": g.n,
        "m": g.m,
        "spanningTrees": str(count),
        "degreeProduct": str(degree_product(g)),
        "kostochkaUpperBoundHolds": bool(g.n >= 2 and g.is_connected() and kostochka_upper_bound_holds(g, count)),
    }
    rows = [("spanningTrees", payload["spanningTrees"]),
            ("degreeProduct", payload["degreeProduct"]),
            ("kostochkaUpperBoundHolds", payload["kostochkaUpperBoundHolds"])]
    return payload, [("key", "value")] + rows


def _run_enumerate(args, parser, seed):
    g, desc = _load_graph(args, parser, seed)
    trees = enumerate_spanning_trees(g, args.cap)
    payload = {
        "graph": desc,
        "count": len(trees),
        "trees": [[list(e) for e in t.edges()] for t in trees],
    }
    rows = [("tree", "edges")] + [
        (i, " ".join(f"{u}-{v}" for u, v in t.edges())) for i, t in enumerate(trees)
    ]
    return payload, rows


def _run_sample(args, parser, seed):
    g, desc = _load_graph(args, parser, seed)
    leaf_counts = []
    attempts = []
    for t in range(args.trials):
        rng = rnglib.stream(seed, rnglib.TREE, t)
        if args.sampler == "reject":
            tree, used = sample_rejection_one_out(g, rng)
            attempts.append(used)
        else:
            tree = SAMPLERS[args.sampler](g, rng)
        leaf_counts.append(len(tree.leaves()))
    payload = {
        "graph": desc,
        "sampler": args.sampler,
        "trials": args.trials,
        "leafCounts": leaf_counts,
        "meanLeaves": statistics.fmean(leaf_counts),
        "minLeaves": min(leaf_counts),
        "maxLeaves": max(leaf_counts),
    }
    if attempts:
        payload["attempts"] = attempts
        payload["meanAttempts"] = statistics.fmean(attempts)
        payload["acceptanceRate"] = args.trials / sum(attempts)
    header = ("trial", "leaves", "attempts") if attempts else ("trial", "leaves")
    rows = [header]
    for t in range(args.trials):
        rows.append((t, leaf_counts[t], attempts[t]) if attempts else (t, leaf_counts[t]))
    return payload, rows


def _run_reconfigure(args, parser, seed):
    g, desc = _load_graph(args, parser, seed)
    trial_rows = []
    violations_total = 0
    for t in range(args.trials):
        tree = sample_wilson(g, rnglib.stream(seed, rnglib.TREE, t))
        subset = sample_vertex_subset(g.n, rnglib.stream(seed, rnglib.SUBSET, t))
        audit = audit_reversibility(
            g, tree, subset, trials=1, rng=rnglib.stream(seed, rnglib.RECONF, t)
        )
        outcome = audit.outcome
        sizes = sorted(len(p) for p in outcome.selection.values())
        row = {
            "trial": t,
            "branch": outcome.branch,
            "selectionSize": len(outcome.selection),
            "minParents": sizes[0] if sizes else 0,
            "medianParents": statistics.median(sizes) if sizes else 0,
            "violations": len(audit.violations),
        }
        if args.dump_selections:
            row["selection"] = {str(v): list(c) for v, c in outcome.selection.items()}
        violations_total += len(audit.violations)
        trial_rows.append(row)
    payload = {
        "graph": desc,
        "trials": args.trials,
        "violations": violations_total,
        "perTrial": trial_rows,
    }
    rows = [("trial", "branch", "selectionSize", "minParents", "medianParents", "violations")]
    rows += [
        (r["trial"], r["branch"], r["selectionSize"], r["minParents"], r["medianParents"], r["violations"])
        for r in trial_rows
    ]
    return payload, rows


def _run_count_noniso(args, parser, seed):
    g, desc = _load_graph(args, parser, seed)
    report = count_non_isomorphic(g, args.mode, args.budget, seed=seed)
    payload = {
        "graph": desc,
        "mode": report.mode,
        "distinct": report.distinct,
        "coverage": report.coverage,
        "unseenMass": report.unseen_mass,
    }
    if report.total_spanning_trees is not None:
        payload["spanningTrees"] = str(report.total_spanning_trees)
    if report.samples is not None:
        payload["samples"] = report.samples
    return payload, [("key", "value")] + sorted(payload.items())


def _estimates_block(report) -> dict:
    return {
        "collision": report.collision,
        "maxMassBound": report.max_mass_bound,
        "ci95": list(report.collision_ci95),
        "ci99": list(report.collision_ci99),
        "distinct": report.distinct,
        "collidingPairs": report.colliding_pairs,
        "maxClassCount": report.max_class_count,
        "ciMethod": CI_METHOD,
    }


def _run_experiment(args, parser, seed):
    kind = args.kind
    if kind == "conjecture":
        sizes = args.sizes
        try:
            check_sizes(args.d, sizes)
        except ValueError as exc:
            parser.error(str(exc))
        scaling = scaling_experiment(args.d, sizes, args.trials, seed=seed, jobs=args.jobs)
        baseline = multinomial_baseline(args.d, sizes, args.trials, seed=seed)
        largest = scaling.rows[-1]
        payload = {
            "experiment": "conjecture",
            "exploratory": True,
            "d": args.d,
            "sizes": list(sizes),
            "seed": seed,
            "trials": args.trials,
            "estimates": _estimates_block(largest.codes),
            "rows": [
                {
                    "n": row.n,
                    "codes": _estimates_block(row.codes),
                    "histograms": _estimates_block(row.histograms),
                }
                for row in scaling.rows
            ],
            "codeSlope": scaling.code_slope,
            "codeSlopeCI95": list(scaling.code_slope_ci95),
            "histogramSlope": scaling.histogram_slope,
            "baseline": {
                "rows": [
                    {
                        "n": r.n,
                        "collision": r.collision,
                        "maxMassBound": r.max_mass_bound,
                        "maxClassFrequency": r.max_class_frequency,
                    }
                    for r in baseline.rows
                ],
                "maxFrequencySlope": baseline.max_frequency_slope,
                "collisionSlope": baseline.collision_slope,
            },
        }
        if None in (scaling.code_slope, scaling.histogram_slope, baseline.collision_slope):
            payload["nullSlopeReason"] = "some size saw no colliding pair; log(0) has no fit"
        rows = [("n", "codeCollision", "codeMaxMassBound", "histCollision")]
        rows += [
            (r.n, r.codes.collision, r.codes.max_mass_bound, r.histograms.collision)
            for r in scaling.rows
        ]
        return payload, rows

    g, desc = _load_graph(args, parser, seed)
    if kind == "pipeline":
        report = pipeline_collision(
            g, args.trials, seed=seed, jobs=args.jobs, keep_digests=args.per_trial
        )
        payload = {
            "experiment": "pipeline",
            "graph": desc,
            "seed": report.seed,
            "trials": report.trials,
            "branchCounts": report.branch_counts,
            "estimates": _estimates_block(report.histograms),
            "codeEstimates": _estimates_block(report.codes),
        }
        if report.digests is not None:
            payload["perTrialDigests"] = [
                {"histogram": list(map(list, h)), "code": c.decode("ascii"), "branch": b}
                for h, c, b in report.digests
            ]
        rows = [("statistic", "collision", "maxMassBound")]
        rows.append(("histogram", report.histograms.collision, report.histograms.max_mass_bound))
        rows.append(("code", report.codes.collision, report.codes.max_mass_bound))
        return payload, rows
    if kind == "lemma35":
        base_tree = sample_wilson(g, rnglib.stream(seed, rnglib.TREE, 0))
        subset = sample_vertex_subset(g.n, rnglib.stream(seed, rnglib.SUBSET, 0))
        outcome = select_leaves(g, base_tree, subset)
        if not outcome.selection:
            raise EmptySelectionError(
                "trial 0 selected no leaves on this graph; try another seed or graph"
            )
        inst = instance_from_selection(g, base_tree, outcome.selection)
        report, master = estimate_max_point_mass(inst, args.trials, seed=seed)
        payload = {
            "experiment": "lemma35",
            "graph": desc,
            "seed": master,
            "trials": args.trials,
            "instance": {
                "aSize": len(inst.a_vertices),
                "bSize": len(inst.b_vertices),
                "aFraction": inst.a_fraction,
                "minADegree": inst.min_a_degree,
            },
            "estimates": _estimates_block(report),
        }
        rows = [("key", "value"), ("collision", report.collision), ("maxMassBound", report.max_mass_bound)]
        return payload, rows
    if kind == "leaves":
        report = leaf_stats(g, args.trials, args.sampler, rnglib.stream(seed, rnglib.TREE))
        expected = report.expected_one_out_leaves
        payload = {
            "experiment": "leaves",
            "graph": desc,
            "seed": seed,
            "sampler": args.sampler,
            "trials": args.trials,
            "leafProbabilities": [str(p) for p in report.leaf_probabilities],
            "sValues": [str(s) for s in report.s_values],
            "expectedOneOutLeaves": str(expected),
            "expectedAtLeastQuarterN": bool(4 * expected >= g.n),
            "histogram": {str(k): v for k, v in report.histogram.items()},
            "meanLeaves": report.mean_leaves,
            "minLeaves": report.min_leaves,
            "maxLeaves": report.max_leaves,
        }
        rows = [("leafCount", "frequency")] + sorted(report.histogram.items())
        return payload, rows
    if kind == "uniformity":
        report = uniformity_experiment(g, args.trials, seed=seed, cap=args.cap)
        payload = {
            "experiment": "uniformity",
            "graph": desc,
            "seed": report.seed,
            "trials": args.trials,
            "support": report.support,
            "rows": [
                {
                    "sampler": row.sampler,
                    "statistic": row.statistic,
                    "pvalue": row.pvalue,
                }
                for row in report.rows
            ],
            "rejectedAt1e3": report.rejected(),
        }
        rows = [("sampler", "statistic", "pvalue")]
        rows += [(r.sampler, r.statistic, r.pvalue) for r in report.rows]
        return payload, rows
    raise ValueError(f"unknown experiment {kind!r}")


HANDLERS = {
    "count-exact": _run_count_exact,
    "enumerate": _run_enumerate,
    "sample": _run_sample,
    "reconfigure": _run_reconfigure,
    "count-noniso": _run_count_noniso,
    "experiment": _run_experiment,
}


def _emit(args, payload, rows, seed, started) -> int:
    finished = datetime.now(timezone.utc).isoformat()
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerows(rows)
        text = buf.getvalue()
    else:
        config = {
            "command": args.command,
            "seed": seed,
            "format": args.format,
        }
        for key in ("trials", "sampler", "mode", "budget", "cap", "jobs", "kind"):
            if hasattr(args, key):
                config[key] = getattr(args, key)
        report = {
            "version": __version__,
            "config": config,
            "timestamps": {"started": started, "finished": finished},
            "results": payload,
        }
        text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
    if not args.out:
        sys.stdout.write(text)
        return 0
    try:
        fh = open(args.out, "w", encoding="utf-8")
    except OSError as exc:
        # A path that cannot be opened for writing is bad usage, like any
        # other bad argument; nothing has been written.
        sys.stderr.write(f"spanlab: error: --out {args.out}: {exc.strerror}\n")
        return 2
    with fh:
        fh.write(text)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    seed = rnglib.resolve_seed(args.seed)
    started = datetime.now(timezone.utc).isoformat()
    try:
        payload, rows = HANDLERS[args.command](args, parser, seed)
    except DOMAIN_ERRORS as exc:
        code = getattr(exc, "code", type(exc).__name__)
        sys.stderr.write(json.dumps({"error": code, "message": str(exc)}) + "\n")
        return 1
    return _emit(args, payload, rows, seed, started)


if __name__ == "__main__":
    sys.exit(main())
