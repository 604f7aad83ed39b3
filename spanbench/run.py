"""spanlab benchmark: end-to-end metrics per workload, or a traced breakdown.

    python3 spanbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a spanlab checkout; the program is imported from
``src/``.  Workloads are defined in ``workloads.py``, metric names and
units in ``BENCHMARK.json``; ``README.md`` says what each metric is and
which end-to-end metric each layer metric should move.

Set-up: a fresh interpreter imports spanlab and builds the workload's
graphs from the seed (``make_inputs.py``), at least three times and for
at least six seconds; ``setup_s`` is the median.  Every command then runs in a child forked from this process
(``command.py``) and is checked; a command fails on a nonzero exit, a
traceback on stderr, a broken invariant, or ``results`` that differ from
the reference digest.  At the default seed the reference is the golden
digest recorded in ``golden.json``; at any other seed it is the first
command's digest, so every later command, including one at another
``--jobs``, has to reproduce it byte for byte.

--trace 0: one warm-up sample at the other ``--jobs`` value (checked, not
timed), then samples until ``--seconds`` have passed (at least three);
prints ``wall_s`` and ``peak_rss_mb`` medians and ``setup_s``.

--trace 1: repeats, at least twice and until ``--seconds`` have passed,
an untraced sample at the workload's ``--jobs``, a traced sample at
``--jobs 1`` and, where the workload's ``--jobs`` is not 1, an untraced
sample at ``--jobs 1``; prints the per-layer metrics (times as medians
over repetitions, counts after checking every repetition agrees).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The lines before it are a
readable report; the whole record, with provenance, is also written to
``.spanbench/result-<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

from command import run_command  # noqa: E402
from spans import layer_totals  # noqa: E402
from workloads import WORK_DIR, WORKLOADS, class_counts, graph_path, invariant_errors  # noqa: E402

DEFAULT_SEED = 0
# Set up at least this many times, and until this much time has been spent.
SETUP_MIN_REPS = 3
SETUP_MIN_S = 6.0
MIN_SAMPLES = 3
MIN_TRACED_REPS = 2
# Every run must end within 180 s; stop starting work after this.
RUN_BUDGET_S = 165.0
# Per-layer values in these units are medians over repetitions; values in
# other units are counts and must repeat exactly.
MEDIAN_UNITS = ("s", "ratio")


class HarnessError(Exception):
    """The benchmark cannot run here; no result is printed."""


def ratio(a: float, b: float) -> float:
    """a / b, or 0 when a failed command left no time to divide by."""
    return a / b if b else 0.0


def results_digest(results) -> str:
    text = json.dumps(results, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Ledger:
    """Operations attempted and the ones that failed, with reasons."""

    attempted: int = 0
    failed_ops: set[str] = field(default_factory=set)
    reasons: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return len(self.failed_ops)

    def record(self, op: str, errors: list[str]) -> None:
        self.attempted += 1
        for error in errors:
            self.fail(op, error)

    def fail(self, op: str, error: str) -> None:
        """Mark an operation as failed; later checks may blame it too."""
        self.failed_ops.add(op)
        self.reasons.append(f"{op}: {error}")


@dataclass
class Sample:
    """Every command of a workload run once."""

    runs: list  # CommandRun per command, in workload order
    ops: list[str]  # the ledger's name for each run

    @property
    def wall_s(self) -> float:
        return sum(r.wall_s or 0.0 for r in self.runs)

    @property
    def peak_rss_mb(self) -> float:
        return max(r.peak_rss_kb for r in self.runs) / 1024

    @property
    def chunked_s(self) -> float:
        return sum(r.record.get("chunked_s", 0.0) for r in self.runs)


class Bench:
    def __init__(self, workload, seed: int, seconds: float):
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.start = time.monotonic()
        self.ledger = Ledger()
        self.work = ROOT / WORK_DIR
        golden = json.loads((HERE / "golden.json").read_text())
        self.reference = dict(golden["digests"][workload.name]) if seed == golden["seed"] else {}
        self.golden = bool(self.reference)

    def time_left(self) -> float:
        return RUN_BUDGET_S - (time.monotonic() - self.start)

    # -- set-up ---------------------------------------------------------

    def setup(self) -> dict:
        items = [f"{spec}={graph_path(self.w.name, label)}" for label, spec in self.w.graphs.items()]
        reps = []
        t0 = time.monotonic()
        i = 0
        while i < SETUP_MIN_REPS or time.monotonic() - t0 < SETUP_MIN_S:
            try:
                proc = subprocess.run(
                    [sys.executable, str(HERE / "make_inputs.py"), str(self.seed), *items],
                    cwd=ROOT, capture_output=True, text=True, timeout=max(self.time_left(), 1.0),
                )
            except subprocess.TimeoutExpired:
                self.ledger.record(f"setup {i}", ["killed at the run deadline"])
                break
            errors = []
            if proc.returncode != 0 or "Traceback" in proc.stderr:
                errors.append(f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
            else:
                rep = json.loads(proc.stdout.strip().splitlines()[-1])
                reps.append(rep)
                if rep["files"] != reps[0]["files"]:
                    errors.append("generated graph files differ between set-ups at one seed")
            self.ledger.record(f"setup {i}", errors)
            i += 1
        if not reps:
            raise HarnessError("every set-up failed:\n" + "\n".join(self.ledger.reasons))
        return {
            "setup_s": statistics.median(r["setup_s"] for r in reps),
            "generate_s": statistics.median(r["generate_s"] for r in reps),
            "reps": reps,
        }

    # -- commands ---------------------------------------------------------

    def sample(self, jobs: int, mode: str, tag: str) -> Sample:
        runs, ops = [], []
        for cmd in self.w.commands:
            argv = [*cmd.argv, "--seed", str(self.seed), "--jobs", str(jobs)]
            stem = self.work / f"{self.w.name}-{cmd.label}-{mode}"
            run = run_command(argv, mode, self.w.jobs, stem, timeout=self.time_left() + 10)
            op = f"{tag} {cmd.label} --jobs {jobs} ({mode})"
            self.ledger.record(op, self.check(cmd, run))
            runs.append(run)
            ops.append(op)
        return Sample(runs, ops)

    def check(self, cmd, run) -> list[str]:
        if run.status is None:
            return ["killed at the run deadline"]
        errors = []
        if run.status != 0:
            errors.append(f"exit status {run.status}")
        if "Traceback" in run.stderr:
            errors.append("traceback on stderr: " + run.stderr.strip()[-500:])
        if run.report is None or "results" not in run.report:
            return errors or ["no JSON report with results"]
        results = run.report["results"]
        errors += invariant_errors(self.w, cmd, results)
        digest = results_digest(results)
        expected = self.reference.setdefault(cmd.label, digest)
        if digest != expected:
            source = "golden digest" if self.golden else "first run at this seed"
            errors.append(f"results sha256 {digest[:12]} differs from the {source} {expected[:12]}")
        return errors

    def loop(self, body, minimum: int) -> list:
        """Call ``body`` at least ``minimum`` times and until --seconds pass."""
        out = []
        t0 = time.monotonic()
        while len(out) < minimum or time.monotonic() - t0 < self.seconds:
            if out and self.time_left() <= 0:
                break
            out.append(body(len(out)))
        return out

    # -- the two kinds of run --------------------------------------------

    def end_to_end(self, setup: dict) -> tuple[dict, dict]:
        self.sample(self.w.alt_jobs, "plain", "warm-up")
        samples = self.loop(lambda i: self.sample(self.w.jobs, "plain", f"sample {i}"), MIN_SAMPLES)
        walls = [s.wall_s for s in samples]
        rss = [s.peak_rss_mb for s in samples]
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": setup["setup_s"],
            "peak_rss_mb": statistics.median(rss),
        }
        detail = {"wall_s": walls, "peak_rss_mb": rss,
                  "setup_s": [r["setup_s"] for r in setup["reps"]]}
        return metrics, detail

    def traced(self, setup: dict, units: dict) -> tuple[dict, dict]:
        def rep(i):
            untraced = self.sample(self.w.jobs, "timed", f"rep {i}")
            traced = self.sample(1, "traced", f"rep {i}")
            serial = untraced if self.w.jobs == 1 else self.sample(1, "timed", f"rep {i}")
            return untraced, traced, serial, self.layers(traced)

        reps = self.loop(rep, MIN_TRACED_REPS)
        per_rep = []
        for i, (untraced, traced, serial, layers) in enumerate(reps):
            layers["graphs.generate.s"] = setup["generate_s"]
            layers["trace_overhead"] = ratio(traced.wall_s, serial.wall_s)
            layers["experiments.pool.efficiency"] = (
                ratio(serial.chunked_s, self.w.jobs * untraced.chunked_s) if self.w.jobs > 1 else 0.0
            )
            self.check_self_times(traced, layers, units)
            per_rep.append((traced, layers))
        metrics = {}
        for name, unit in units.items():
            values = [layers[name] for _, layers in per_rep]
            if unit in MEDIAN_UNITS:
                metrics[name] = statistics.median(values)
                continue
            metrics[name] = values[0]
            for (traced, _), v in zip(per_rep[1:], values[1:]):
                if v != values[0]:
                    self.ledger.fail(traced.ops[0], f"{name} = {v}, the first repetition gave {values[0]}")
        return metrics, {"reps": [layers for _, layers in per_rep]}

    def layers(self, sample: Sample) -> dict:
        """Per-layer values of one traced sample (summed over its commands)."""
        out: dict = {}
        for cmd, run in zip(self.w.commands, sample.runs):
            spans = json.loads(run.spans_path.read_text()) if run.spans_path else []
            values = layer_totals(spans)
            results = (run.report or {}).get("results", {})
            codes, hists = class_counts(cmd, results) if results else (0, 0)
            values["canonical.code_classes"] = codes
            values["canonical.histogram_classes"] = hists
            values["cli.results_bytes"] = len(json.dumps(results, sort_keys=True, indent=2).encode())
            values["exact.count_bits"] = (
                int(results["spanningTrees"]).bit_length() if "spanningTrees" in results else 0
            )
            pool = run.record.get("pool", {})
            values["experiments.pool.chunks"] = pool.get("chunks", 0)
            values["experiments.pool.task_bytes"] = pool.get("task_bytes", 0)
            for k, v in values.items():
                out[k] = out.get(k, 0) + v
        return out

    def check_self_times(self, traced: Sample, layers: dict, names) -> None:
        """Reported self times must add up to the traced command time."""
        total = sum(layers[n] for n in names if n.endswith(".self_s"))
        slack = max(layers["trace_overhead"] - 1.0, 0.01) * traced.wall_s
        if abs(total - traced.wall_s) > slack:
            self.ledger.fail(
                traced.ops[0],
                f"self times sum to {total:.4f} s, traced wall is {traced.wall_s:.4f} s",
            )


def provenance(workload, seed: int) -> dict:
    import numpy
    import scipy

    def git(*args):
        try:
            proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    # A checkout that is not a git repository (or sits inside another one)
    # has no commit of its own; source_sha256 identifies the code instead.
    top = git("rev-parse", "--show-toplevel")
    commit = git("rev-parse", "HEAD") if top and Path(top).resolve() == ROOT else None
    src = hashlib.sha256()
    for path in sorted((SRC / "spanlab").rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "source_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "seed": seed,
        "workload": workload.name,
        "trials": workload.trials,
        "jobs": workload.jobs,
        "commands": [" ".join(c.argv) for c in workload.commands],
        "graphs": workload.graphs,
        "why": workload.why,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must be in [0, 2^63)")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_program():
    sys.path.insert(0, str(SRC))
    import spanlab.cli

    if Path(spanlab.cli.__file__).resolve().parent != SRC / "spanlab":
        raise HarnessError(f"imported spanlab from {spanlab.cli.__file__}, not from {SRC}")


def main(argv=None) -> int:
    # Turn SIGTERM into SystemExit so that a running command's process
    # group is killed and reaped on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    workload = WORKLOADS[args.workload]
    try:
        if not (SRC / "spanlab" / "cli.py").is_file():
            raise HarnessError(f"no spanlab source under {SRC}; run from a spanlab checkout")
        os.chdir(ROOT)
        (ROOT / WORK_DIR).mkdir(exist_ok=True)
        bench = Bench(workload, args.seed, args.seconds)
        setup = bench.setup()
        import_program()
        if args.trace:
            metrics, detail = bench.traced(setup, units)
        else:
            metrics, detail = bench.end_to_end(setup)
    except HarnessError as exc:
        print(f"spanbench: {exc}", file=sys.stderr)
        return 2
    missing = set(units) - set(metrics)
    if missing:
        raise RuntimeError(f"metrics in BENCHMARK.json with no producer: {sorted(missing)}")

    ledger = bench.ledger
    record = {
        "provenance": provenance(workload, args.seed),
        "golden_seed": bench.golden,
        "digests": bench.reference,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units},
        "detail": detail,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "failures": ledger.reasons,
        "elapsed_s": time.monotonic() - bench.start,
    }
    out_path = ROOT / WORK_DIR / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=2) + "\n")

    print(f"# spanbench {workload.name} seed={args.seed} trace={args.trace}: {workload.why}")
    print("# provenance " + json.dumps(record["provenance"], sort_keys=True))
    for name in units:
        print(f"{name:48s} {metrics[name]:>16.6g} {units[name]}")
    label, count = ("repetitions", len(detail["reps"])) if args.trace else ("samples", len(detail["wall_s"]))
    print(f"{label:48s} {count:>16d} count")
    print(f"{'failed_fraction':48s} {ledger.failed / ledger.attempted:>16.6g} "
          f"({ledger.failed} of {ledger.attempted} operations)")
    for reason in ledger.reasons:
        print(f"# FAILED {reason}")
    print(f"# record written to {out_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
