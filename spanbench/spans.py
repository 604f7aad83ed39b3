"""Span tracing of one spanlab command, installed from outside the package.

The tracer replaces public spanlab functions with wrappers that record a
span per call: name, start, end, the index of the enclosing span, the id
of the trial it belongs to, and a few counts read off the arguments or
the result.  Spans stay in memory; the caller dumps them when the
command ends.  Nothing under ``src/`` is changed: the wrappers are put
into every ``spanlab`` module namespace that holds the original object,
so calls through ``from .x import f`` names are traced too.

Only install a tracer in a process that runs one command and exits (the
benchmark forks one per command): the wrappers are never removed.
"""

from __future__ import annotations

import sys
import time

# (module, attribute) of every traced callable.  The span name is the
# module's name inside the package plus the attribute, e.g. "rng.stream".
TRACED = (
    ("spanlab.cli", "main"),
    ("spanlab.graphs", "read_graph_file"),
    ("spanlab.rng", "stream"),
    ("spanlab.sampling", "sample_wilson"),
    ("spanlab.trees", "SpanningTree.from_parents"),
    ("spanlab.reconfig", "sample_vertex_subset"),
    ("spanlab.reconfig", "select_leaves"),
    ("spanlab.reconfig", "reconfigure"),
    ("spanlab.canonical", "histogram_key"),
    ("spanlab.canonical", "code_from_neighbors"),
    ("spanlab.stats", "bootstrap_collisions"),
    ("spanlab.experiments", "pipeline_reconfigured_tree"),
    ("spanlab.experiments", "pipeline_collision"),
    ("spanlab.experiments", "scaling_experiment"),
    ("spanlab.experiments", "multinomial_baseline"),
    ("spanlab.exact", "count_spanning_trees"),
    ("spanlab.exact", "bareiss_determinant"),
)

# Span record fields, stored as lists for speed.
NAME, START, END, PARENT, TRIAL, ATTRS = range(6)


def span_name(module: str, attr: str) -> str:
    return f"{module.removeprefix('spanlab.')}.{attr}"


class Tracer:
    """Collects nested spans of one thread, in call order."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.trial: str | None = None

    def wrap(self, fn, name: str):
        spans = self.spans
        stack = self.stack
        clock = time.perf_counter
        enter = _ENTER.get(name)
        note = _NOTE.get(name)
        tracer = self

        def traced(*args, **kwargs):
            if enter is not None:
                enter(tracer, args)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.trial, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if note is not None:
                rec[ATTRS] = note(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Swap every traced callable for its wrapper, package-wide."""
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "spanlab" or key.startswith("spanlab."))
        ]
        for modname, attr in TRACED:
            name = span_name(modname, attr)
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if not isinstance(raw, classmethod):
                    raise TypeError(f"{name} is expected to be a classmethod")
                setattr(cls, meth, classmethod(self.wrap(raw.__func__, name)))
                continue
            orig = getattr(owner, attr)
            wrapped = self.wrap(orig, name)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is orig:
                        setattr(module, key, wrapped)


def _enter_trial(tracer: Tracer, args) -> None:
    # pipeline_reconfigured_tree(g, master, t): this call and the digests
    # computed from its tree belong to trial (master, t).
    tracer.trial = f"{args[1]}:{args[2]}"


def _leave_trials(tracer: Tracer, args) -> None:
    tracer.trial = None


_ENTER = {
    "experiments.pipeline_reconfigured_tree": _enter_trial,
    "experiments.pipeline_collision": _leave_trials,
}

_NOTE = {
    "reconfig.select_leaves": lambda args, out: {
        "branch": out.branch, "selected": len(out.selection)
    },
    "stats.bootstrap_collisions": lambda args, out: {"classes": len(args[0])},
}


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    covered = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            covered[rec[PARENT]] += rec[END] - rec[START]
    return [rec[END] - rec[START] - covered[i] for i, rec in enumerate(spans)]


def layer_totals(spans) -> dict[str, float]:
    """Calls, self time and counts per traced layer of one command.

    Keys are ``<span>.calls`` and ``<span>.self_s`` for every traced
    name, the same split by branch for ``select_leaves``, plus
    ``reconfig.selected_leaves.total``, ``stats.bootstrap_collisions.classes``
    and ``cli.main.s`` (the traced command's whole duration).
    """
    out: dict[str, float] = {}
    for modname, attr in TRACED:
        name = span_name(modname, attr)
        out[f"{name}.calls"] = 0
        out[f"{name}.self_s"] = 0.0
    for branch in ("low", "high"):
        out[f"reconfig.select_leaves.{branch}.calls"] = 0
        out[f"reconfig.select_leaves.{branch}.self_s"] = 0.0
    out["reconfig.selected_leaves.total"] = 0
    out["stats.bootstrap_collisions.classes"] = 0
    out["cli.main.s"] = 0.0
    for rec, own in zip(spans, self_times(spans)):
        name = rec[NAME]
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += own
        attrs = rec[ATTRS]
        if name == "reconfig.select_leaves":
            # The program names its branches "low-degree" and "high-degree".
            branch = "low" if attrs["branch"].startswith("low") else "high"
            out[f"reconfig.select_leaves.{branch}.calls"] += 1
            out[f"reconfig.select_leaves.{branch}.self_s"] += own
            out["reconfig.selected_leaves.total"] += attrs["selected"]
        elif name == "stats.bootstrap_collisions":
            out["stats.bootstrap_collisions.classes"] += attrs["classes"]
        elif name == "cli.main":
            out["cli.main.s"] += rec[END] - rec[START]
    return out
