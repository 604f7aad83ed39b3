"""Run one spanlab CLI command in a forked child and measure it.

The benchmark process imports ``spanlab.cli`` once and forks a child per
command, so every command starts from freshly imported module state (no
cache survives from an earlier command) without paying the import again;
the import is timed separately, as part of set-up.  The child times
``cli.main`` from entry until it returns, which is after the report has
been written.  The parent collects the child's peak resident memory from
``wait4``; the kernel folds into it the peak of every process the child
waited for, so pool workers are included.

Modes:
  plain   nothing but the command (end-to-end metrics)
  timed   also times each call of ``experiments._run_chunked`` (the trial
          loop, serial or pooled)
  traced  ``timed`` plus span tracing of the public spanlab functions;
          spans are dumped after the command, and the chunks and pickled
          task bytes ``_run_chunked`` would build at ``pool_jobs`` workers
          are counted with a stand-in executor that runs nothing
"""

from __future__ import annotations

import inspect
import json
import os
import pickle
import select
import signal
import sys
import time
import traceback
from concurrent.futures import Future
from dataclasses import dataclass
from pathlib import Path

from spans import Tracer


@dataclass
class CommandRun:
    status: int | None  # exit status; None when killed at the deadline
    peak_rss_kb: int
    stderr: str
    record: dict  # written by the child: rc, wall_s, chunked_s, pool
    report: dict | None  # the CLI's JSON report, when the command succeeded
    spans_path: Path | None

    @property
    def wall_s(self) -> float | None:
        return self.record.get("wall_s")


def run_command(argv: list[str], mode: str, pool_jobs: int, stem: Path,
                timeout: float) -> CommandRun:
    """Run ``spanlab <argv> --out <stem>.report.json`` in a forked child."""
    paths = {k: stem.with_name(f"{stem.name}.{k}")
             for k in ("stdout", "stderr", "report.json", "record.json", "spans.json")}
    for p in paths.values():
        p.unlink(missing_ok=True)
    argv = [*argv, "--out", str(paths["report.json"])]
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:  # child: never returns
        code = 1
        try:
            os.setpgid(0, 0)
            for fd, key in ((1, "stdout"), (2, "stderr")):
                out = os.open(paths[key], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
                os.dup2(out, fd)
                os.close(out)
            code = _child(argv, mode, pool_jobs, paths["record.json"], paths["spans.json"])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except BaseException:
            traceback.print_exc()
        finally:
            try:
                sys.stdout.flush()
                sys.stderr.flush()
            finally:
                os._exit(code)
    status, usage = _wait(pid, timeout)
    record = json.loads(paths["record.json"].read_text()) if paths["record.json"].exists() else {}
    report = None
    if status == 0 and paths["report.json"].exists():
        report = json.loads(paths["report.json"].read_text())
    return CommandRun(
        status=status,
        peak_rss_kb=usage.ru_maxrss,
        stderr=paths["stderr"].read_text(errors="replace"),
        record=record,
        report=report,
        spans_path=paths["spans.json"] if paths["spans.json"].exists() else None,
    )


def _wait(pid: int, timeout: float):
    """Wait for ``pid`` up to ``timeout`` s; kill its process group after,
    or at once if the wait is interrupted."""
    pidfd = os.pidfd_open(pid)
    try:
        ready, _, _ = select.select([pidfd], [], [], max(timeout, 0.0))
    except BaseException:
        os.killpg(pid, signal.SIGKILL)
        os.wait4(pid, 0)
        raise
    finally:
        os.close(pidfd)
    if not ready:
        os.killpg(pid, signal.SIGKILL)
        _, _, usage = os.wait4(pid, 0)
        return None, usage
    _, status, usage = os.wait4(pid, 0)
    return os.waitstatus_to_exitcode(status), usage


def _child(argv, mode, pool_jobs, record_path: Path, spans_path: Path) -> int:
    from spanlab import cli, experiments

    run_chunked = experiments._run_chunked
    chunked_calls = []
    if mode != "plain":
        def timed_run_chunked(*args, **kwargs):
            t = time.perf_counter()
            try:
                return run_chunked(*args, **kwargs)
            finally:
                chunked_calls.append((time.perf_counter() - t, args, kwargs))

        experiments._run_chunked = timed_run_chunked
    tracer = None
    if mode == "traced":
        tracer = Tracer()
        tracer.install()
    main = cli.main  # looked up after install: the traced one when tracing
    t0 = time.perf_counter()
    rc = main(argv)
    wall_s = time.perf_counter() - t0
    record = {"rc": rc, "wall_s": wall_s, "chunked_s": sum(c[0] for c in chunked_calls)}
    if tracer is not None:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh, separators=(",", ":"))
        record["pool"] = _probe_pool(experiments, run_chunked, chunked_calls, pool_jobs)
    record_path.write_text(json.dumps(record))
    return rc


def _probe_pool(experiments, run_chunked, calls, jobs: int) -> dict:
    """Chunks and pickled task bytes ``run_chunked`` builds at ``jobs``.

    Replays each recorded call with a no-op worker and a stand-in for the
    process pool that pickles what it is handed and runs nothing.
    """
    tally = {"chunks": 0, "task_bytes": 0}

    class StandInPool:
        def __init__(self, *args, initializer=None, initargs=(), **kwargs):
            if initializer is not None:
                tally["task_bytes"] += len(pickle.dumps(initargs))

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, **kwargs):
            for task in zip(*iterables):
                tally["chunks"] += 1
                tally["task_bytes"] += len(pickle.dumps(task[0] if len(task) == 1 else task))
                yield []

        def submit(self, fn, *args, **kwargs):
            tally["chunks"] += 1
            tally["task_bytes"] += len(pickle.dumps((args, kwargs)))
            done = Future()
            done.set_result([])
            return done

    signature = inspect.signature(run_chunked)
    saved = experiments.ProcessPoolExecutor
    experiments.ProcessPoolExecutor = StandInPool
    try:
        for _, args, kwargs in calls:
            bound = signature.bind(*args, **kwargs).arguments
            bound["worker"] = lambda task: []
            bound["jobs"] = jobs
            run_chunked(**bound)
    finally:
        experiments.ProcessPoolExecutor = saved
    return tally
