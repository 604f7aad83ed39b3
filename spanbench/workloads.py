"""The benchmark's workloads: inputs, commands and output invariants.

A workload is a fixed set of spanlab CLI commands run on inputs built
from the workload seed.  One *sample* runs each command of the workload
once; its wall time is their sum and its peak memory their maximum.
"""

from __future__ import annotations

from dataclasses import dataclass, field

WORK_DIR = ".spanbench"


@dataclass(frozen=True)
class Command:
    label: str
    argv: tuple[str, ...]  # spanlab CLI arguments, without --seed/--jobs/--out
    # Exact spanning-tree count known in closed form (count-exact only).
    closed_form: int | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    jobs: int  # --jobs of the timed commands
    trials: int | None
    commands: tuple[Command, ...]
    graphs: dict[str, str] = field(default_factory=dict)  # label -> generate spec

    @property
    def alt_jobs(self) -> int:
        """--jobs of the warm-up command that checks --jobs changes nothing."""
        return 1 if self.jobs > 1 else 2


def graph_path(workload: str, label: str) -> str:
    # Fixed per workload and label: the CLI echoes it in results.graph,
    # which the golden digests cover.
    return f"{WORK_DIR}/{workload}-{label}.graph"


PIPELINE_TRIALS = 100
CONJECTURE_TRIALS = 1000
EXACT_N = 150

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="pipeline-reg16",
            why=(
                "pipeline on a random 16-regular graph, n=2048, --jobs 1: 16^3 > n puts "
                "every trial on the high-degree branch, inner loops dominate, set-up is "
                "random_regular"
            ),
            jobs=1,
            trials=PIPELINE_TRIALS,
            graphs={"reg16": "regular:16,2048"},
            commands=(
                Command("reg16", ("experiment", "pipeline",
                                  "--graph", graph_path("pipeline-reg16", "reg16"),
                                  "--trials", str(PIPELINE_TRIALS))),
            ),
        ),
        Workload(
            name="conjecture-k3",
            why=(
                "conjecture on K_{3,n-3}, n=50..400, --jobs 2: per-trial fixed costs show, "
                "only the low-degree branch runs, colliding classes load the bootstrap, "
                "pools chunk work"
            ),
            jobs=2,
            trials=CONJECTURE_TRIALS,
            commands=(
                Command("k3", ("experiment", "conjecture", "--d", "3",
                               "--sizes", "50,100,200,400",
                               "--trials", str(CONJECTURE_TRIALS))),
            ),
        ),
        Workload(
            name="count-exact",
            why=(
                f"count-exact on complete:{EXACT_N} and regular:16,{EXACT_N}: only graphs "
                "and exact run; dense and sparse Hadamard bounds differ, so a faster "
                "determinant must hold on both"
            ),
            jobs=1,
            trials=None,
            graphs={"dense": f"complete:{EXACT_N}", "sparse": f"regular:16,{EXACT_N}"},
            commands=(
                Command("dense", ("count-exact", "--graph", graph_path("count-exact", "dense")),
                        closed_form=EXACT_N ** (EXACT_N - 2)),
                Command("sparse", ("count-exact", "--graph", graph_path("count-exact", "sparse"))),
            ),
        ),
    )
}


def invariant_errors(workload: Workload, cmd: Command, results: dict) -> list[str]:
    """Checks on one command's ``results`` that hold at every seed."""
    errors = []
    if cmd.argv[0] == "count-exact":
        if not results.get("kostochkaUpperBoundHolds"):
            errors.append(f"{cmd.label}: kostochkaUpperBoundHolds is not true")
        if cmd.closed_form is not None and results.get("spanningTrees") != str(cmd.closed_form):
            errors.append(f"{cmd.label}: spanningTrees differs from n^(n-2)")
    elif cmd.argv[1] == "pipeline":
        branches = results.get("branchCounts", {})
        if results.get("trials") != workload.trials or sum(branches.values()) != workload.trials:
            errors.append(f"{cmd.label}: trial count or branch counts do not add up")
        if set(branches) != {"high-degree"}:
            errors.append(f"{cmd.label}: expected every trial on the high-degree branch")
    elif cmd.argv[1] == "conjecture":
        rows = results.get("rows", [])
        if [r["n"] for r in rows] != [50, 100, 200, 400]:
            errors.append(f"{cmd.label}: rows do not cover the four sizes")
        for r in rows:
            if r["codes"]["collidingPairs"] > r["histograms"]["collidingPairs"]:
                errors.append(f"{cmd.label}: code collisions exceed histogram collisions")
    return errors


def class_counts(cmd: Command, results: dict) -> tuple[int, int]:
    """(distinct code classes, distinct histogram classes) in a report."""
    if cmd.argv[0] != "experiment":
        return 0, 0
    if cmd.argv[1] == "pipeline":
        return results["codeEstimates"]["distinct"], results["estimates"]["distinct"]
    rows = results["rows"]
    return (sum(r["codes"]["distinct"] for r in rows),
            sum(r["histograms"]["distinct"] for r in rows))
