"""What the benchmark's tracer and pool probe need of the package.

``spanbench/spans.py`` looks its traced callables up by name, and
``spanbench/command.py`` wraps ``experiments._run_chunked`` and swaps
``experiments.ProcessPoolExecutor`` for a stand-in.  A refactor that
renames any of them breaks a traced benchmark run; these checks fail
first.  ``spans.py`` is parsed, not imported, so nothing under
``spanbench/`` is executed or written.
"""

import ast
import importlib
import inspect
from pathlib import Path

from spanlab import experiments

SPANS = Path(__file__).resolve().parents[1] / "spanbench" / "spans.py"


def _traced() -> tuple[tuple[str, str], ...]:
    for node in ast.parse(SPANS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED table in {SPANS}")


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


def test_pool_probe_hooks_exist():
    params = inspect.signature(experiments._run_chunked).parameters
    assert {"worker", "jobs"} <= set(params)
    assert hasattr(experiments, "ProcessPoolExecutor")
