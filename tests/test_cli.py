import argparse
import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spanlab as sl
from spanlab import DomainError, cli
from spanlab.cli import main

from helpers import graph_file_bytes, random_connected_graph


def run_json(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip().startswith("{") else out)


def test_count_exact_k4(capsys):
    code, report = run_json(
        capsys, "count-exact", "--gen", "complete:4", "--seed", "1"
    )
    assert code == 0
    results = report["results"]
    assert results["spanningTrees"] == "16"
    assert results["kostochkaUpperBoundHolds"] is True
    assert results["degreeProduct"] == "81"
    assert report["config"]["seed"] == 1


def test_count_exact_from_file(tmp_path, capsys):
    path = tmp_path / "c5.txt"
    sl.write_graph_file(sl.cycle_graph(5), path)
    code, report = run_json(capsys, "count-exact", "--graph", str(path), "--seed", "2")
    assert code == 0
    assert report["results"]["spanningTrees"] == "5"


def test_enumerate_triangle(capsys):
    code, report = run_json(
        capsys, "enumerate", "--gen", "complete:3", "--cap", "10", "--seed", "3"
    )
    assert code == 0
    assert report["results"]["count"] == 3
    assert len(report["results"]["trees"]) == 3


def _cli_results(*argv):
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(list(argv)) == 0, argv
    return json.loads(out.getvalue())["results"]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 7),
    st.sampled_from([0.35, 0.5, 0.8]),
    st.integers(0, 2**32 - 1),
)
def test_enumerate_agrees_with_count_exact(n, p, seed):
    g = random_connected_graph(n, np.random.default_rng(seed), p)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.txt")
        sl.write_graph_file(g, path)
        listed = _cli_results("enumerate", "--graph", path, "--seed", "1")
        counted = _cli_results("count-exact", "--graph", path, "--seed", "1")
    trees = {tuple(map(tuple, t)) for t in listed["trees"]}
    assert listed["count"] == len(listed["trees"]) == int(counted["spanningTrees"])
    assert len(trees) == len(listed["trees"])  # pairwise distinct
    edges = set(g.edges())
    assert all(len(t) == n - 1 and set(t) <= edges for t in trees)


def test_enumerate_cap_exceeded_is_domain_error(capsys):
    code = main(["enumerate", "--gen", "complete:4", "--cap", "10", "--seed", "4"])
    captured = capsys.readouterr()
    assert code == 1
    err = json.loads(captured.err)
    assert err["error"] == "CapExceeded"


def test_enumerate_deep_graph_hits_cap_without_traceback(capsys):
    # 1225 edges: the contraction depth would exceed Python's recursion limit.
    code = main(["enumerate", "--gen", "complete:50", "--cap", "10"])
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.err)["error"] == "CapExceeded"
    assert "Traceback" not in captured.err


def test_sample_reject_single_vertex(capsys):
    code, report = run_json(
        capsys, "sample", "--gen", "complete:1", "--sampler", "reject", "--trials", "3"
    )
    assert code == 0
    assert report["results"]["attempts"] == [1, 1, 1]
    assert report["results"]["leafCounts"] == [0, 0, 0]


def test_count_exact_too_large_is_domain_error(tmp_path, capsys):
    path = tmp_path / "long_path.txt"
    sl.write_graph_file(sl.path_graph(2**13 + 1), path)
    code = main(["count-exact", "--graph", str(path)])
    assert code == 1
    assert json.loads(capsys.readouterr().err)["error"] == "MatrixTooLarge"


def test_sample_reject_reports_attempts(capsys):
    code, report = run_json(
        capsys,
        "sample", "--gen", "bipartite:2,3", "--sampler", "reject",
        "--trials", "50", "--seed", "5",
    )
    assert code == 0
    results = report["results"]
    assert len(results["leafCounts"]) == 50
    assert len(results["attempts"]) == 50
    assert results["acceptanceRate"] > 0


def test_sample_csv_rows(capsys):
    code = main(
        ["sample", "--gen", "complete:4", "--trials", "5", "--seed", "6",
         "--format", "csv"]
    )
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "trial,leaves"
    assert len(lines) == 6


def test_reconfigure_reports_no_violations(capsys):
    code, report = run_json(
        capsys,
        "reconfigure", "--gen", "bipartite:3,30", "--trials", "20", "--seed", "7",
    )
    assert code == 0
    results = report["results"]
    assert results["violations"] == 0
    assert len(results["perTrial"]) == 20
    row = results["perTrial"][0]
    assert set(row) >= {"branch", "selectionSize", "minParents", "medianParents", "violations"}


def test_reconfigure_dump_selections(capsys):
    code, report = run_json(
        capsys,
        "reconfigure", "--gen", "complete:6", "--trials", "3", "--seed", "8",
        "--dump-selections",
    )
    assert code == 0
    assert all("selection" in row for row in report["results"]["perTrial"])


def test_count_noniso_exact(capsys):
    code, report = run_json(
        capsys, "count-noniso", "--gen", "complete:4", "--mode", "exact",
        "--budget", "100", "--seed", "9",
    )
    assert code == 0
    assert report["results"]["distinct"] == 2
    assert report["results"]["spanningTrees"] == "16"


def test_experiment_uniformity(capsys):
    code, report = run_json(
        capsys, "experiment", "uniformity", "--gen", "complete:4",
        "--trials", "2000", "--seed", "10",
    )
    assert code == 0
    results = report["results"]
    assert results["support"] == 16
    assert results["rejectedAt1e3"] == []


def test_experiment_pipeline_schema(capsys):
    code, report = run_json(
        capsys, "experiment", "pipeline", "--gen", "bipartite:3,30",
        "--trials", "300", "--seed", "11",
    )
    assert code == 0
    results = report["results"]
    assert {"seed", "trials", "estimates"} <= set(results)
    assert {"collision", "maxMassBound", "ci95"} <= set(results["estimates"])
    assert len(results["estimates"]["ci95"]) == 2


def test_experiment_pipeline_digests_flag(capsys):
    code, report = run_json(
        capsys, "experiment", "pipeline", "--gen", "complete:5",
        "--trials", "10", "--seed", "12", "--per-trial",
    )
    assert code == 0
    digests = report["results"]["perTrialDigests"]
    assert len(digests) == 10
    assert {"histogram", "code", "branch"} <= set(digests[0])


def test_experiment_leaves(capsys):
    code, report = run_json(
        capsys, "experiment", "leaves", "--gen", "complete:8",
        "--trials", "100", "--seed", "13",
    )
    assert code == 0
    results = report["results"]
    assert results["expectedAtLeastQuarterN"] is True
    assert len(results["leafProbabilities"]) == 8


def test_experiment_lemma35(capsys):
    code, report = run_json(
        capsys, "experiment", "lemma35", "--gen", "bipartite:3,40",
        "--trials", "500", "--seed", "14",
    )
    assert code == 0
    results = report["results"]
    assert results["instance"]["aSize"] >= 1
    assert 0 <= results["estimates"]["collision"] <= 1


def test_experiment_conjecture_small(capsys):
    code, report = run_json(
        capsys, "experiment", "conjecture", "--d", "3", "--sizes", "30,60",
        "--trials", "200", "--seed", "15",
    )
    assert code == 0
    results = report["results"]
    assert results["exploratory"] is True
    assert len(results["rows"]) == 2
    assert "baseline" in results and "codeSlope" in results


@pytest.mark.parametrize(
    "argv",
    [
        ["experiment", "pipeline", "--gen", "bipartite:3,20", "--trials", "200", "--seed", "42"],
        # Forked pool workers inherit the parent's memoised stream prefixes.
        ["experiment", "conjecture", "--d", "3", "--sizes", "30,60", "--trials", "100",
         "--seed", "42"],
    ],
    ids=["pipeline", "conjecture"],
)
def test_payload_determinism(capsys, argv):
    code1, rep1 = run_json(capsys, *argv)
    code2, rep2 = run_json(capsys, *argv)
    code3, rep3 = run_json(capsys, *argv, "--jobs", "2")
    assert code1 == code2 == code3 == 0
    assert rep1["results"] == rep2["results"] == rep3["results"]


def test_auto_seed_is_echoed(capsys):
    code, report = run_json(capsys, "count-exact", "--gen", "complete:3")
    assert code == 0
    assert isinstance(report["config"]["seed"], int)


@pytest.mark.parametrize(
    "argv",
    [
        ["experiment", "pipeline", "--gen", "regular:4,30", "--trials", "5", "--per-trial"],
        ["count-exact", "--gen", "gnp:30,0.3,2"],
    ],
    ids=["pipeline-regular", "count-exact-gnp"],
)
def test_seedless_run_replays_from_its_reported_seed(capsys, argv):
    # The random graph must come from the seed the report records.
    code, first = run_json(capsys, *argv)
    assert code == 0
    code, replay = run_json(capsys, *argv, "--seed", str(first["config"]["seed"]))
    assert code == 0
    assert replay["results"] == first["results"]


def test_out_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["count-exact", "--gen", "complete:4", "--seed", "1",
                 "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["results"]["spanningTrees"] == "16"


@pytest.mark.parametrize("target", ["missing-dir", "directory"])
def test_unwritable_out_is_usage_error(tmp_path, capsys, target):
    out = tmp_path / "no" / "such" / "x.json" if target == "missing-dir" else tmp_path
    before = sorted(tmp_path.rglob("*"))
    code = main(["count-exact", "--gen", "complete:4", "--seed", "1", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("spanlab: error: --out ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert sorted(tmp_path.rglob("*")) == before  # no partial file


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sample", "--gen", "regular:3,5", "--seed", "1"])  # parity
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["count-exact"])  # no graph at all
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["count-exact", "--gen", "complete:4", "--bogus"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["count-exact", "--gen", "complete:4", "--graph", "x.txt"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["sample", "--gen", "complete:5", "--seed", "-1"])  # not a u64
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["reconfigure", "--gen", "complete:5", "--trials", "-3"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:  # a collision rate needs a pair
        main(["experiment", "pipeline", "--gen", "complete:5", "--trials", "1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["experiment", "conjecture", "--d", "3", "--sizes", "50", "--trials", "1"])
    assert exc.value.code == 2
    too_many_jobs = str((os.cpu_count() or 1) + 1)
    for argv in (
        ["experiment", "pipeline", "--gen", "complete:5", "--jobs", "0"],
        ["experiment", "pipeline", "--gen", "complete:5", "--jobs", "-2"],
        ["experiment", "pipeline", "--gen", "complete:5", "--jobs", too_many_jobs],
        ["experiment", "pipeline", "--gen", "complete:5", "--jobs", "1000000000"],
        ["enumerate", "--gen", "complete:4", "--cap", "0"],
        ["experiment", "uniformity", "--gen", "complete:4", "--cap", "-1"],
        ["count-noniso", "--gen", "complete:4", "--budget", "0"],
        ["experiment", "conjecture", "--d", "0", "--sizes", "50"],
        ["experiment", "conjecture", "--sizes", "50,0"],
        ["experiment", "conjecture", "--sizes", "50,,100"],
        ["experiment", "conjecture", "--sizes", "fifty"],
        # A flag the command does not read, or an option before the kind.
        ["experiment", "conjecture", "--gen", "regular:16,2048", "--graph", "/nonexistent",
         "--d", "3", "--sizes", "20,40", "--trials", "10", "--seed", "1"],
        ["experiment", "pipeline", "--gen", "complete:5", "--sampler", "ab", "--cap", "3",
         "--d", "9", "--sizes", "5,6"],
        ["count-exact", "--gen", "complete:4", "--trials", "5"],
        ["experiment", "--trials", "5", "pipeline", "--gen", "complete:5"],
    ):
        # argparse rejects each value before any handler, and so any pool, runs.
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv


# The flags each command and experiment kind parses: every one is read.
_REPORT = ("--seed", "--format", "--out", "--jobs")
_GRAPH = ("--graph", "--gen")
OPTIONS = {
    "count-exact": {*_GRAPH, *_REPORT},
    "enumerate": {*_GRAPH, *_REPORT, "--cap"},
    "sample": {*_GRAPH, *_REPORT, "--trials", "--sampler"},
    "reconfigure": {*_GRAPH, *_REPORT, "--trials", "--dump-selections"},
    "count-noniso": {*_GRAPH, *_REPORT, "--mode", "--budget"},
    "experiment lemma35": {*_GRAPH, *_REPORT, "--trials"},
    "experiment pipeline": {*_GRAPH, *_REPORT, "--trials", "--per-trial"},
    "experiment conjecture": {*_REPORT, "--trials", "--d", "--sizes"},
    "experiment leaves": {*_GRAPH, *_REPORT, "--trials", "--sampler"},
    "experiment uniformity": {*_GRAPH, *_REPORT, "--trials", "--cap"},
}


def _subparsers(parser):
    [action] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_each_command_parses_only_the_flags_it_reads(capsys):
    found = {}
    for command, p in _subparsers(cli.build_parser()).items():
        leaves = _subparsers(p) if command == "experiment" else {None: p}
        for kind, leaf in leaves.items():
            name = command if kind is None else f"{command} {kind}"
            found[name] = {
                opt for a in leaf._actions for opt in a.option_strings if opt not in ("-h", "--help")
            }
    assert found == OPTIONS
    assert sum(map(len, found.values())) == 75
    # The 25 flags each command used to take and never read are refused.
    refused = 0
    for name, options in OPTIONS.items():
        taken = {*_GRAPH, *_REPORT, "--trials"}
        if name.startswith("experiment"):
            taken |= {"--sampler", "--d", "--sizes", "--per-trial", "--cap"}
        for opt in taken - options:
            with pytest.raises(SystemExit) as exc:
                cli.build_parser().parse_args([*name.split(), f"{opt}=2"])
            assert exc.value.code == 2, (name, opt)
            assert f"unrecognized arguments: {opt}=2" in capsys.readouterr().err
            refused += 1
    assert refused == 25


def _outcome(argv):
    """Exit code, stdout and stderr of ``main(argv)``, timestamps cut."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    text = out.getvalue()
    return code, text[: text.find('"timestamps"')], err.getvalue()


@pytest.mark.parametrize("name", OPTIONS)
def test_a_run_builds_only_its_own_parser(monkeypatch, name):
    words = name.split()
    command = cli.build_parser(words)
    assert set(_subparsers(command)) == {words[0]}
    if len(words) == 2:
        assert set(_subparsers(_subparsers(command)["experiment"])) == {words[1]}
    graph = ["--sizes", "30,60"] if "--sizes" in OPTIONS[name] else ["--gen", "complete:4"]
    cases = [
        [*words, "--help"],
        [*words, "--bogus"],  # the top parser's usage error
        [*words, "--seed", "-1"],  # the command's own usage error
        [*words, *graph, "--trials", "2", "--seed", "7"] if "--trials" in OPTIONS[name]
        else [*words, *graph, "--seed", "7"],
    ]
    partial = [_outcome(argv) for argv in cases]
    full = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda argv=None: full())
    assert partial == [_outcome(argv) for argv in cases]
    assert all(code == 2 for code, _, _ in partial[1:3])
    assert '"config"' in partial[3][1]


@pytest.mark.parametrize(
    "argv", [[], ["-h"], ["--version"], ["bogus"], ["experiment"], ["experiment", "-h"],
             ["experiment", "bogus"], ["--", "sample"]]
)
def test_argv_that_names_no_command_gets_the_full_parser(argv):
    commands = _subparsers(cli.build_parser(argv))
    assert len(commands) == 6 and len(_subparsers(commands["experiment"])) == 5


def test_unknown_names_are_errors_of_command_and_kind(capsys):
    # Only a partial parser spells its subcommands out as a metavar, which
    # argparse would also print here in place of the dest.
    for argv, dest in ((["bogus"], "command"), (["experiment", "bogus"], "kind")):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"error: argument {dest}: invalid choice: 'bogus'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,unread",
    [
        (["experiment", "pipeline", "--gen", "complete:5", "--trials", "5"], {"sampler", "cap"}),
        (["experiment", "conjecture", "--sizes", "30,60", "--trials", "5"], {"sampler", "cap"}),
        (["count-exact", "--gen", "complete:4"], {"trials"}),
    ],
    ids=["pipeline", "conjecture", "count-exact"],
)
def test_config_records_only_settings_read(capsys, argv, unread):
    code, report = run_json(capsys, *argv, "--seed", "1", "--jobs", "1")
    assert code == 0
    assert report["config"]["jobs"] == 1  # accepted everywhere
    assert not unread & set(report["config"])


def _config(capsys, argv):
    code, report = run_json(capsys, *argv, "--seed", "5")
    assert code == 0, argv
    return report["config"]


@pytest.mark.parametrize(
    "argv,flag,value,other",
    [
        (["experiment", "conjecture", "--trials", "5", "--sizes"], "sizes", "20,40", "20,80"),
        (["experiment", "conjecture", "--trials", "5", "--sizes", "20,40", "--d"], "d", "3", "2"),
        (["count-exact", "--gen"], "gen", "complete:4", "complete:5"),
        (["count-exact", "--graph"], "graph", "c5.txt", "c6.txt"),
        (["experiment", "pipeline", "--gen", "complete:5", "--trials", "5"], "per_trial", None, None),
        (["reconfigure", "--gen", "bipartite:3,10", "--trials", "2"], "dump_selections", None, None),
    ],
    ids=["sizes", "d", "gen", "graph", "per-trial", "dump-selections"],
)
def test_config_tells_apart_runs_that_differ_in_one_flag(capsys, tmp_path, argv, flag, value, other):
    sl.write_graph_file(sl.cycle_graph(5), tmp_path / "c5.txt")
    sl.write_graph_file(sl.cycle_graph(6), tmp_path / "c6.txt")
    if flag == "graph":
        value, other = str(tmp_path / value), str(tmp_path / other)
    if value is None:  # a switch: on against off
        first, second = _config(capsys, [*argv, "--" + flag.replace("_", "-")]), _config(capsys, argv)
    else:
        first, second = _config(capsys, [*argv, value]), _config(capsys, [*argv, other])
    assert {k for k in first if first[k] != second[k]} == {flag}


def argv_from_config(config):
    """The command line that ``config`` alone describes."""
    argv = [config["command"]] + ([config["kind"]] if "kind" in config else [])
    for key, value in config.items():
        if key in ("command", "kind") or value is None or value is False:
            continue
        argv.append("--" + key.replace("_", "-"))
        if value is not True:
            argv.append(",".join(map(str, value)) if isinstance(value, list) else str(value))
    return argv


@pytest.mark.parametrize(
    "argv",
    [
        ["experiment", "conjecture", "--sizes", "20,40", "--trials", "10"],
        ["experiment", "pipeline", "--gen", "regular:4,30", "--trials", "5", "--per-trial"],
        ["reconfigure", "--gen", "bipartite:3,10", "--trials", "2", "--dump-selections"],
        ["count-exact", "--gen", "gnp:30,0.3,2"],
    ],
    ids=["conjecture", "pipeline-per-trial", "reconfigure-dump", "count-exact-gen"],
)
def test_config_alone_replays_the_run(capsys, argv):
    code, first = run_json(capsys, *argv)
    assert code == 0
    code, replay = run_json(capsys, *argv_from_config(first["config"]))
    assert code == 0
    assert replay["config"] == first["config"]
    assert json.dumps(replay["results"], sort_keys=True) == json.dumps(first["results"], sort_keys=True)


@pytest.mark.parametrize(
    "argv",
    [
        ["reconfigure", "--gen", "bipartite:3,10", "--t", "2", "--d"],
        ["experiment", "conjecture", "--siz", "20,40", "--tri", "10", "--j", "1"],
        ["count-exact", "--ge", "complete:4"],
        ["--vers"],
    ],
    ids=["reconfigure", "conjecture", "count-exact", "root"],
)
def test_abbreviated_flags_are_refused(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    # Read as --version, "--vers" would print the version and exit 0.
    assert captured.out == "" and "spanlab: error:" in captured.err


@pytest.mark.parametrize(
    "spec,reason",
    [
        ("gnp:2,0.5,2", "no graph on 2 vertices has min degree 2"),
        ("gnp:6,0,1", "G(6,0) has no edge, so it is never connected"),
        ("regular:1,2000", "no 1-regular graph on 2000 vertices is connected"),
    ],
)
def test_infeasible_gnp_spec_is_usage_error(capsys, spec, reason):
    # Refused when the spec is parsed, before any draw.
    with pytest.raises(SystemExit) as exc:
        main(["count-exact", "--gen", spec, "--seed", "1"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.rstrip().endswith("error: " + reason)


def test_cli_import_does_not_load_scipy():
    # scipy.stats costs about a second to import; only the chi-square test
    # uses it, so it is imported there and not when the CLI module loads.
    src = os.path.dirname(os.path.dirname(sl.__file__))
    code = "import sys, spanlab, spanlab.cli; sys.exit(int('scipy' in sys.modules))"
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["experiment", "pipeline", "--gen", "complete:6", "--trials", "20", "--seed", "1"],
        ["experiment", "conjecture", "--sizes", "10,20", "--trials", "20", "--seed", "1"],
        ["experiment", "lemma35", "--gen", "complete:8", "--trials", "20", "--seed", "3"],
    ],
    ids=["pipeline", "conjecture", "lemma35"],
)
def test_experiments_do_not_load_numpy_ma(argv):
    # np.percentile loads numpy.ma (about 1 MB) through np.unique; the
    # bootstrap intervals are computed without it.
    src = os.path.dirname(os.path.dirname(sl.__file__))
    code = (
        "import contextlib, io, sys\n"
        "from spanlab.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0\n"
        "sys.exit(int('numpy.ma' in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_missing_file_is_domain_error(capsys):
    code = main(["count-exact", "--graph", "/nonexistent/g.txt"])
    assert code == 1


def domain_error(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 1
    return json.loads(captured.err)


def test_non_ascii_graph_file_is_graph_error(tmp_path, capsys):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"2 1\n0 \xff\n")
    err = domain_error(capsys, "count-exact", "--graph", str(path))
    assert err["error"] == "GraphError"
    assert "can't decode byte 0xff" in err["message"]


@pytest.mark.parametrize("command", [["sample"], ["experiment", "pipeline"]])
def test_disconnected_graph_file_is_typed_domain_error(tmp_path, capsys, command):
    path = tmp_path / "two_edges.txt"
    path.write_text("4 2\n0 1\n2 3\n")
    err = domain_error(capsys, *command, "--graph", str(path), "--trials", "3")
    assert err == {"error": "DisconnectedGraph", "message": "sampler requires a connected graph"}


def test_lemma35_empty_selection_is_typed_domain_error(capsys):
    # On the triangle, trial 0 at seed 1 selects no leaf to build on.
    err = domain_error(
        capsys, "experiment", "lemma35", "--gen", "complete:3", "--trials", "2", "--seed", "1"
    )
    assert err["error"] == "EmptySelection"


@pytest.mark.parametrize(
    "sizes,message",
    [
        ("5,10", "every size must exceed 2d"),
        ("100,50", "sizes must be increasing"),
        ("7,7", "sizes must be increasing"),
        ("50", "at least two sizes"),
    ],
)
def test_conjecture_bad_sizes_are_usage_errors(capsys, sizes, message):
    with pytest.raises(SystemExit) as exc:
        main(["experiment", "conjecture", "--d", "3", "--sizes", sizes, "--trials", "2"])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def test_conjecture_without_collisions_writes_null_slopes(capsys):
    # Two trials per size rarely collide: a slope fit over a zero
    # collision rate would take log(0), so it is reported as null.
    code = main(["experiment", "conjecture", "--sizes", "50,100", "--trials", "2", "--seed", "1"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    results = json.loads(captured.out, parse_constant=_reject_constant)["results"]
    nulls = [results["codeSlope"], results["histogramSlope"], results["baseline"]["collisionSlope"]]
    assert None in nulls
    assert isinstance(results["nullSlopeReason"], str)


def test_one_tree_uniformity_is_strict_json(capsys):
    # K_2 has a single spanning tree: a chi-square test with no degrees
    # of freedom, whose scipy p-value is NaN.
    code = main(["experiment", "uniformity", "--gen", "complete:2", "--trials", "5"])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    rows = json.loads(captured.out, parse_constant=_reject_constant)["results"]["rows"]
    assert all(row["pvalue"] == 1.0 for row in rows)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


DOMAIN_CLASSES = list(_subclasses(DomainError))
TYPED_CODES = {cls.code for cls in DOMAIN_CLASSES}


def test_value_error_in_handler_is_not_a_domain_error(monkeypatch, capsys):
    def broken(args, parser, seed):
        raise ValueError("a bug, not bad input")

    assert all(isinstance(cls.__dict__.get("code"), str) for cls in DOMAIN_CLASSES)
    monkeypatch.setitem(cli.HANDLERS, "count-exact", broken)
    with pytest.raises(ValueError, match="a bug"):
        main(["count-exact", "--gen", "complete:3"])
    assert capsys.readouterr().err == ""


def test_every_domain_error_exits_one_with_its_own_code(monkeypatch, capsys):
    # Raised from a handler, each subclass of DomainError (twelve when this
    # was written) is reported by its own code, and no two share one.
    assert len(DOMAIN_CLASSES) >= 12
    assert all(isinstance(cls.__dict__.get("code"), str) for cls in DOMAIN_CLASSES)
    assert len(TYPED_CODES) == len(DOMAIN_CLASSES)
    for cls in DOMAIN_CLASSES:
        def raise_it(args, parser, seed):
            raise cls(f"a {cls.__name__}")

        monkeypatch.setitem(cli.HANDLERS, "count-exact", raise_it)
        assert main(["count-exact", "--gen", "complete:3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert json.loads(captured.err) == {"error": cls.code, "message": f"a {cls.__name__}"}

@settings(max_examples=300, deadline=None)
@given(graph_file_bytes())
def test_count_exact_graph_file_fuzz(data):
    # In process, a traceback would be an exception escaping main().
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.txt")
        with open(path, "wb") as fh:
            fh.write(data)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["count-exact", "--graph", path, "--seed", "1"])
    assert code in (0, 1)
    if code:
        assert json.loads(err.getvalue())["error"] in TYPED_CODES
    else:
        assert json.loads(out.getvalue())["results"]["n"] >= 0


# Graph specs on at most 8 vertices: feasible ones of every family, plus
# infeasible and malformed ones that must end as usage errors.
_SPECS = st.one_of(
    st.integers(0, 8).map("complete:{}".format),
    st.tuples(st.integers(0, 4), st.integers(1, 4)).map("bipartite:{0[0]},{0[1]}".format),
    st.tuples(st.integers(1, 4), st.integers(2, 8)).map("regular:{0[0]},{0[1]}".format),
    st.tuples(st.integers(2, 8), st.sampled_from(["0.5", "0.9", "1"]), st.integers(0, 2)).map(
        "gnp:{0[0]},{0[1]},{0[2]}".format
    ),
    st.sampled_from(["complete:x", "regular:3", "gnp:5,2,1", "star:4", ""]),
)

# Every subcommand, sampler and experiment kind; {limit} is a cap or budget,
# {trials} a trial count, given only to the commands that take one.
_COMMANDS = [
    "count-exact",
    "enumerate --cap {limit}",
    "sample --sampler wilson --trials {trials}",
    "sample --sampler ab --trials {trials}",
    "sample --sampler reject --trials {trials}",
    "reconfigure --trials {trials}",
    "reconfigure --dump-selections --trials {trials}",
    "count-noniso --mode exact --budget {limit}",
    "count-noniso --mode sampled --budget {limit}",
    "experiment lemma35 --trials {trials}",
    "experiment pipeline --trials {trials}",
    "experiment leaves --trials {trials}",
    "experiment uniformity --cap {limit} --trials {trials}",
]


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(_COMMANDS),
    st.integers(1, 300),
    _SPECS,
    st.sampled_from(["json", "csv"]),
    st.integers(1, 12),
    st.integers(0, 2**64 - 1),
)
def test_cli_fuzz_every_subcommand(command, limit, spec, fmt, trials, seed):
    argv = [*command.format(limit=limit, trials=trials).split(), "--gen", spec, "--format", fmt,
            "--seed", str(seed), "--jobs", "1"]
    out, err = io.StringIO(), io.StringIO()
    # In process, a traceback would be an exception escaping main().
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue()
    # Exit 2 must come from a bad value, never from a flag the command lacks.
    assert "unrecognized arguments" not in err.getvalue(), argv
    if code == 1:
        assert json.loads(err.getvalue())["error"] in TYPED_CODES, argv
    if code == 0 and fmt == "json":
        json.loads(out.getvalue(), parse_constant=_reject_constant)
