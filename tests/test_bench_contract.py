"""What the benchmark's tracer and pool probe need of the package.

``spanbench/spans.py`` looks its traced callables up by name, reads
arguments of some of them by position (its ``_ENTER`` table), and
``spanbench/command.py`` wraps ``experiments._run_chunked`` and swaps
``experiments.ProcessPoolExecutor`` for a stand-in that runs nothing and
returns empty results, then replays each recorded call through it.  A
refactor that renames any of them, or that cannot take empty results,
breaks a traced benchmark run; these checks fail first.  The benchmark
also runs fixed CLI commands (``spanbench/workloads.py``), so every flag
they pass must stay accepted.  ``spans.py`` and ``workloads.py`` are
parsed, not imported, so nothing under ``spanbench/`` is executed or
written.
"""

import ast
import importlib
import inspect
import os
from concurrent.futures import Future
from pathlib import Path

import pytest

import spanlab as sl
from spanlab import experiments
from spanlab.cli import build_parser
from spanlab.graphs import GraphSpec, generate

SPANBENCH = Path(__file__).resolve().parents[1] / "spanbench"
SPANS = SPANBENCH / "spans.py"
WORKLOADS = SPANBENCH / "workloads.py"


def _spans_table(name: str) -> ast.expr:
    for node in ast.parse(SPANS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == [name]:
            return node.value
    raise AssertionError(f"no {name} table in {SPANS}")


def _traced() -> tuple[tuple[str, str], ...]:
    return ast.literal_eval(_spans_table("TRACED"))


def _enter_hooks() -> dict[str, str]:
    """``_ENTER``: span name -> the name of the hook that reads its call's
    arguments."""
    table = _spans_table("_ENTER")
    return {key.value: value.id for key, value in zip(table.keys, table.values)}


def test_every_traced_callable_resolves():
    traced = _traced()
    assert ("spanlab.trees", "SpanningTree.from_parents") in traced
    for modname, attr in traced:
        owner = importlib.import_module(modname)
        if "." in attr:
            # The tracer rewraps a dotted name as a classmethod of its class.
            cls_name, meth = attr.split(".")
            raw = getattr(owner, cls_name).__dict__[meth]
            assert isinstance(raw, classmethod), (modname, attr)
        else:
            assert callable(getattr(owner, attr)), (modname, attr)


def test_trial_hook_reads_master_and_trial():
    # spans.py's _enter_trial takes args[1] and args[2] of each
    # pipeline_reconfigured_tree call as the trial id of the spans under it.
    hooks = _enter_hooks()
    assert hooks["experiments.pipeline_reconfigured_tree"] == "_enter_trial"
    traced = {f"{m.removeprefix('spanlab.')}.{a}" for m, a in _traced()}
    assert set(hooks) <= traced
    params = list(inspect.signature(experiments.pipeline_reconfigured_tree).parameters)
    assert params[:3] == ["g", "master", "t"]


def test_chunk_loop_calls_the_trial_hook_once_per_trial(monkeypatch):
    # The chunk loop hands each trial its ready-made streams; it must still
    # call pipeline_reconfigured_tree through the module, once per trial in
    # trial order, with (master, t) where the tracer reads them.
    calls = []
    real = experiments.pipeline_reconfigured_tree

    def recorded(*args, **kwargs):
        calls.append(args[1:3])
        return real(*args, **kwargs)

    monkeypatch.setattr(experiments, "pipeline_reconfigured_tree", recorded)
    g = generate(GraphSpec.parse("bipartite:3,12"), 0)
    report = sl.pipeline_collision(g, 24, seed=4, jobs=1)
    assert calls == [(report.seed, t) for t in range(24)]


def test_pool_probe_hooks_exist():
    params = inspect.signature(experiments._run_chunked).parameters
    assert {"worker", "jobs"} <= set(params)
    assert hasattr(experiments, "ProcessPoolExecutor")


class StandInPool:
    """A process pool like the benchmark probe's stand-in: ``map`` and
    ``submit`` run nothing and return empty results."""

    tasks: list = []
    pools = 0

    def __init__(self, *args, **kwargs):
        StandInPool.pools += 1

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables, **kwargs):
        for task in zip(*iterables):
            self.tasks.append(task)
            yield []

    def submit(self, fn, *args, **kwargs):
        self.tasks.append(args)
        done = Future()
        done.set_result([])
        return done


@pytest.mark.parametrize("jobs", [1, 2])
def test_pool_probe_replay_of_a_sweep(monkeypatch, jobs):
    # Record the _run_chunked call of a two-size sweep, then replay it the
    # way the benchmark's traced run does: a no-op worker, the workload's
    # jobs, and the stand-in in place of the process pool.
    calls = []
    real = experiments._run_chunked
    monkeypatch.setattr(
        experiments, "_run_chunked", lambda *a, **k: calls.append((a, k)) or real(*a, **k)
    )
    experiments.scaling_experiment(3, (30, 60), trials=160, seed=5, jobs=1)
    [(args, kwargs)] = calls
    bound = inspect.signature(real).bind(*args, **kwargs).arguments
    bound["worker"] = lambda task: []
    bound["jobs"] = jobs
    monkeypatch.setattr(experiments, "ProcessPoolExecutor", StandInPool)
    monkeypatch.setattr(StandInPool, "tasks", [])
    monkeypatch.setattr(StandInPool, "pools", 0)
    out = real(**bound)
    # Eager: a lazy result would be timed before any trial ran, and the
    # probe, which never reads it, would count no chunk.
    assert type(out) is list and len(out) == 2
    if jobs == 1:
        # Runs in this process: no pool, nothing pickled.
        assert StandInPool.pools == 0 and StandInPool.tasks == []
        return
    # 160 trials in chunks of ceil(160 / 16) = 10: 16 chunks per size, all
    # on one pool, and no other task (the bootstraps run in this process).
    assert StandInPool.pools == 1
    assert len(StandInPool.tasks) == 2 * 16
    assert all(len(task) == 1 for task in StandInPool.tasks)


def _workload_argvs() -> list[list[str]]:
    """The argv of every ``Command(...)`` in ``workloads.py``, each element
    that is not a string literal (a graph path, a trial count) read as "2",
    which every flag's type accepts."""
    argvs = []
    for node in ast.walk(ast.parse(WORKLOADS.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Command":
            argv = node.args[1] if len(node.args) > 1 else next(
                k.value for k in node.keywords if k.arg == "argv"
            )
            argvs.append([
                e.value if isinstance(e, ast.Constant) and isinstance(e.value, str) else "2"
                for e in argv.elts
            ])
    return argvs


def test_every_workload_command_parses():
    # The benchmark appends --seed, --jobs (1 or 2) and --out to each command.
    argvs = _workload_argvs()
    assert {a[0] for a in argvs} == {"experiment", "count-exact"} and len(argvs) == 4
    jobs = str(min(2, os.cpu_count() or 1))
    for argv in argvs:
        build_parser().parse_args([*argv, "--seed", "0", "--jobs", jobs, "--out", "x"])
