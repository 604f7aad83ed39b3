import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spanlab as sl
from spanlab import cli
from spanlab.cli import main


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


def test_out_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["count-exact", "--gen", "complete:4", "--seed", "1",
                 "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["results"]["spanningTrees"] == "16"


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
    ):
        # argparse rejects each value before any handler, and so any pool, runs.
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv


def test_cli_import_does_not_load_scipy():
    # scipy.stats costs about a second to import; only the chi-square test
    # uses it, so it is imported there and not when the CLI module loads.
    src = os.path.dirname(os.path.dirname(sl.__file__))
    code = "import sys, spanlab, spanlab.cli; sys.exit(int('scipy' in sys.modules))"
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


def test_value_error_in_handler_is_not_a_domain_error(monkeypatch, capsys):
    def broken(args, parser, seed):
        raise ValueError("a bug, not bad input")

    assert all(isinstance(cls.__dict__.get("code"), str) for cls in cli.DOMAIN_ERRORS)
    monkeypatch.setitem(cli.HANDLERS, "count-exact", broken)
    with pytest.raises(ValueError, match="a bug"):
        main(["count-exact", "--gen", "complete:3"])
    assert capsys.readouterr().err == ""


def _codes(classes):
    for cls in classes:
        yield getattr(cls, "code", None)
        yield from _codes(cls.__subclasses__())


TYPED_CODES = set(_codes(cli.DOMAIN_ERRORS)) - {None}

_TOKENS = st.one_of(
    st.integers(-2, 9).map(str),
    st.sampled_from(["#", "x", "1.5", "+1", "1_0", "\t", "\xff"]),
)
_LINES = st.lists(_TOKENS, max_size=4).map(" ".join)


@st.composite
def graph_file_bytes(draw):
    """Mostly well-formed graph files on up to 9 vertices, with junk lines,
    comments, bad headers, stray vertices and non-ASCII bytes mixed in."""
    n = draw(st.integers(-1, 9))
    vertex = st.integers(-1, max(n, 0))
    body = draw(st.lists(st.tuples(vertex, vertex).map("{0[0]} {0[1]}".format), max_size=12))
    header = f"{n} {len(body)}" if draw(st.integers(0, 4)) != 3 else draw(_LINES)
    for junk in draw(st.lists(_LINES, max_size=2)):
        body.insert(draw(st.integers(0, len(body))), junk)
    return ("\n".join([header, *body]) + "\n").encode("latin-1")


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
