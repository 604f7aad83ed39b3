import hashlib
import os
import pickle
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spanlab as sl
from spanlab import rng as rnglib
from spanlab.graphs import (
    DisconnectedGraphError,
    DuplicateEdgeError,
    GenerationRetriesExhaustedError,
    GraphError,
    InfeasibleSpecError,
    SelfLoopError,
    VertexOutOfRangeError,
    _pair_stubs,
    connected,
)
from spanlab.reconfig import high_degree, low_neighbors

from helpers import (
    graph_file_bytes,
    reference_build_graph,
    reference_double_edge_switches,
    reference_read_graph_file,
)


def test_triangle_build():
    g = sl.build_graph([(0, 1), (1, 2), (0, 2)], 3)
    assert g.n == 3 and g.m == 3
    assert g.neighbors == ((1, 2), (0, 2), (0, 1))


def test_pickle_keeps_the_graph_and_drops_its_caches():
    g = sl.complete_bipartite(3, 30)
    assert g.is_connected()
    assert any(high_degree(g)) and any(low_neighbors(g))  # every cache is filled now
    copy = pickle.loads(pickle.dumps(g))
    assert (copy.n, copy.m, copy.neighbors, copy.degrees) == (g.n, g.m, g.neighbors, g.degrees)
    assert copy.edges() == g.edges()
    assert copy._connected is None and copy._high_degree is None and copy._low_neighbors is None
    assert len(pickle.dumps(copy)) == len(pickle.dumps(g))
    assert g.__reduce__()[1] == (g.n, g.neighbors)


def test_common_degree_survives_a_pickle_and_an_edge_removal():
    g = sl.random_regular(4, 30, sl.stream(3))
    # Drop an edge away from vertex 0, whose degree stays 4.
    edges = [e for e in g.edges() if 0 not in e]
    irregular = sl.build_graph([e for e in g.edges() if e != edges[-1]], g.n)
    for graph, d in ((g, 4), (irregular, None), (sl.complete_bipartite(3, 30), None)):
        copy = pickle.loads(pickle.dumps(graph))
        assert graph.common_degree == copy.common_degree == d
    assert sl.complete_graph(1).common_degree == 0


def test_duplicate_edge_rejected():
    with pytest.raises(DuplicateEdgeError):
        sl.build_graph([(0, 1), (0, 1)], 2)
    with pytest.raises(DuplicateEdgeError):
        sl.build_graph([(0, 1), (1, 0)], 2)


def test_self_loop_rejected():
    with pytest.raises(SelfLoopError):
        sl.build_graph([(1, 1)], 2)


def test_vertex_out_of_range_rejected():
    with pytest.raises(VertexOutOfRangeError):
        sl.build_graph([(0, 3)], 3)
    with pytest.raises(VertexOutOfRangeError):
        sl.build_graph([(-1, 0)], 3)


@st.composite
def edge_lists_with_faults(draw):
    """(edges, n): distinct edges of a graph on n <= 8 vertices in either
    orientation, with up to four faults inserted anywhere: repeats in both
    orientations, self-loops, endpoints at or above n, negative endpoints
    that do or do not index a list."""
    n = draw(st.integers(0, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [
        (u, v) if flip else (v, u)
        for (u, v), flip in zip(
            draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [],
            draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs))),
        )
    ]
    vertex = st.integers(0, max(n - 1, 0))
    for kind in draw(st.lists(st.sampled_from(["dup", "loop", "high", "neg", "alias"]), max_size=4)):
        if kind == "dup":
            if not edges:
                continue
            u, v = draw(st.sampled_from(edges))
            fault = (u, v) if draw(st.booleans()) else (v, u)
        elif kind == "loop":
            fault = (draw(vertex),) * 2
        else:
            bad = {
                "high": st.integers(n, n + 2),
                "neg": st.integers(-n - 3, -n - 1),
                "alias": st.integers(-n, -1) if n else st.just(-1),
            }[kind]
            fault = (draw(bad), draw(vertex)) if draw(st.booleans()) else (draw(vertex), draw(bad))
        edges.insert(draw(st.integers(0, len(edges))), fault)
    return edges, n


def outcome(build, edges, n):
    try:
        return build(edges, n).neighbors
    except (GraphError, TypeError, ValueError) as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(edge_lists_with_faults(), st.booleans())
@example(([(0, 1), (0, 1.5), (5, 0)], 3), False)  # a TypeError comes before a later fault
@example(([(0, 1, 2), (1, 1)], 3), True)  # so does a bad edge tuple
def test_build_graph_matches_the_edge_by_edge_reference(case, lazy):
    edges, n = case
    got = outcome(sl.build_graph, iter(edges) if lazy else edges, n)
    assert got == outcome(reference_build_graph, edges, n)


def test_complete_graph_degrees():
    g = sl.complete_graph(4)
    assert g.m == 6
    assert all(d == 3 for d in g.degrees)


def test_bipartite_2_3():
    g = sl.complete_bipartite(2, 3)
    assert g.n == 5 and g.m == 6
    assert sorted(g.degrees, reverse=True) == [3, 3, 2, 2, 2]


def test_regular_3_4_is_k4():
    g = sl.generate(sl.GraphSpec.parse("regular:3,4"), seed=5)
    assert g.edges() == sl.complete_graph(4).edges()


def test_regular_odd_product_infeasible():
    with pytest.raises(InfeasibleSpecError):
        sl.GraphSpec.parse("regular:3,5")
    with pytest.raises(InfeasibleSpecError):
        sl.random_regular(3, 5, sl.stream(0))


@pytest.mark.parametrize("d,n", [(2, 8), (3, 10), (8, 50), (16, 64)])
def test_regular_degree_audit(d, n):
    g = sl.random_regular(d, n, sl.stream(1234))
    assert all(deg == d for deg in g.degrees)
    assert g.is_connected()


def oracle_random_regular(d, n, rng, retries=1000):
    """``random_regular``'s retry loop on the per-element switch oracle.

    Returns the graph (None once the retries run out) and the number of
    pairings that were switched and tested for connectivity.
    """
    built = 0
    for _ in range(retries):
        edges = _pair_stubs(d, n, rng)
        if edges is None:
            continue
        built += 1
        g = sl.build_graph(sorted(reference_double_edge_switches(edges, rng)), n)
        if g.is_connected():
            return g, built
    return None, built


# (d, n, seed): m < 2 at (1, 2) and (0, 1); no switch succeeds on K_4 and
# the triangle; (2, 8) and (2, 12) retry disconnected outcomes at several
# of these seeds.
REGULAR_GRID = (
    [(0, 1, 0), (2, 3, 0), (3, 4, 0)]
    + [(1, 2, s) for s in range(3)]
    + [(2, 8, s) for s in range(10)]
    + [(2, 12, s) for s in range(8)]
    + [(3, 50, s) for s in range(20)]
    + [(4, 9, s) for s in range(20)]
    + [(16, 150, s) for s in (0, 3, 7)]
)


def test_random_regular_matches_oracle():
    retried = 0
    for d, n, seed in REGULAR_GRID:
        fast = sl.stream(seed, rnglib.GENERATE)
        slow = sl.stream(seed, rnglib.GENERATE)
        g = sl.random_regular(d, n, fast)
        want, built = oracle_random_regular(d, n, slow)
        assert g.edges() == want.edges(), (d, n, seed)
        assert g.neighbors == want.neighbors and g.m == want.m
        # Both sides consumed exactly the same draws.
        assert fast.bit_generator.state == slow.bit_generator.state, (d, n, seed)
        retried += built > 1
    assert retried >= 3


@pytest.mark.parametrize(
    "d,n,seed,pairings",
    [
        pytest.param(2, 16, 4, 4, id="2-16"),
        pytest.param(2, 30, 5, 4, id="2-30"),
        pytest.param(2, 12, 4, 2, id="2-12"),
    ],
)
def test_random_regular_unconnectable_matches_oracle(d, n, seed, pairings):
    # At these seeds every 2-regular draw of the four retries splits into
    # several cycles, so the retries run out; on 12 vertices two of them
    # cannot even pair their stubs.
    fast = sl.stream(seed, rnglib.GENERATE)
    slow = sl.stream(seed, rnglib.GENERATE)
    with pytest.raises(GenerationRetriesExhaustedError):
        sl.random_regular(d, n, fast, retries=4)
    want, built = oracle_random_regular(d, n, slow, retries=4)
    assert want is None and built == pairings
    assert fast.bit_generator.state == slow.bit_generator.state


def test_regular_16_2048_seed0_digest():
    # Recorded before the switch loop was rewritten; the benchmark's
    # pipeline-reg16 input depends on every byte of it.
    g = sl.generate(sl.GraphSpec.parse("regular:16,2048"), seed=0)
    text = "".join(f"{u} {v}\n" for u, v in g.edges())
    assert g.m == 16384
    assert (
        hashlib.sha256(text.encode("ascii")).hexdigest()
        == "3b88c96a18fa8fdd9929612ffbde938e303a145cd864ba590fb613c963ebf2f5"
    )


def test_graph_keeps_the_validated_edge_set():
    g = sl.build_graph([(2, 0), (1, 2), (0, 3)], 4)
    assert g.m == 3
    assert g.edges() == [(0, 2), (0, 3), (1, 2)]
    assert all(g.has_edge(v, u) and g.has_edge(u, v) for u, v in g.edges())
    assert not g.has_edge(1, 3) and not g.has_edge(3, 1)
    # Python lists wrap negative indexes; vertices outside 0..n-1 have no edges.
    for u in (-1, g.n):
        assert not any(g.has_edge(u, v) or g.has_edge(v, u) for v in range(-1, g.n + 1))


def test_generate_deterministic():
    a = sl.generate(sl.GraphSpec.parse("regular:6,30"), seed=99)
    b = sl.generate(sl.GraphSpec.parse("regular:6,30"), seed=99)
    assert a.edges() == b.edges()
    c = sl.generate(sl.GraphSpec.parse("gnp:30,0.3,2"), seed=7)
    d = sl.generate(sl.GraphSpec.parse("gnp:30,0.3,2"), seed=7)
    assert c.edges() == d.edges()


def _connected_min_degree(g, d: int) -> bool:
    return g.is_connected() and g.min_degree() >= d


def test_gnp_min_degree_post():
    g = sl.gnp_min_degree(40, 0.3, 3, sl.stream(21))
    assert _connected_min_degree(g, 3)


def test_connected_returns_a_search_tree_rooted_at_0():
    for g in (sl.complete_graph(1), sl.path_graph(5), sl.cycle_graph(6),
              sl.complete_bipartite(3, 4), sl.random_regular(3, 20, sl.stream(8))):
        parent = connected(g.neighbors)
        assert parent[0] == 0 and len(parent) == g.n
        for v in range(1, g.n):
            assert g.has_edge(v, parent[v])
            # Following parents from any vertex reaches 0 without a repeat.
            seen = {v}
            while v != 0:
                v = parent[v]
                assert v not in seen
                seen.add(v)
    two_triangles = sl.build_graph([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)], 6)
    assert connected(two_triangles.neighbors) is None
    assert connected(()) is None


def test_generated_graphs_meet_implied_min_degree():
    cases = [
        ("complete:7", 6),
        ("bipartite:3,9", 3),
        ("regular:4,12", 4),
        ("gnp:25,0.4,3", 3),
    ]
    for spec_text, d in cases:
        g = sl.generate(sl.GraphSpec.parse(spec_text), seed=3)
        assert _connected_min_degree(g, d), spec_text


def test_graph_file_roundtrip(tmp_path):
    g = sl.complete_bipartite(2, 3)
    path = tmp_path / "k23.txt"
    sl.write_graph_file(g, path)
    again = sl.read_graph_file(path)
    assert again.n == g.n and again.edges() == g.edges()


def test_graph_file_comments_and_errors(tmp_path):
    path = tmp_path / "g.txt"
    path.write_bytes(b"  # a triangle\n\t3  3 \r\n\n 0\t1\n   # middle comment\n1 2  \n0 2\n")
    g = sl.read_graph_file(path)
    assert g.n == 3 and g.edges() == [(0, 1), (0, 2), (1, 2)]
    bad = tmp_path / "bad.txt"
    bad.write_text("3 2\n0 1\n")
    with pytest.raises(GraphError):
        sl.read_graph_file(bad)
    worse = tmp_path / "worse.txt"
    worse.write_text("oops\n")
    with pytest.raises(GraphError):
        sl.read_graph_file(worse)


def test_spec_parse_and_describe():
    spec = sl.GraphSpec.parse("bipartite:3,40")
    assert spec.family == "bipartite" and spec.params == (3, 40)
    assert spec.describe() == "bipartite:3,40"
    assert sl.GraphSpec.parse("gnp:300,0.05,8").params == (300, 0.05, 8)
    for bad in ("complete", "complete:x", "ring:5", "bipartite:3", "gnp:1,2", "file:x"):
        with pytest.raises(InfeasibleSpecError):
            sl.GraphSpec.parse(bad)


class NoDraws:
    """An rng that fails the test if anything draws from it."""

    def __getattr__(self, name):
        raise AssertionError(f"drew from the rng ({name})")


# gnp:n,p,d specs by feasibility: d >= n, or p = 0 with n >= 2, has no
# connected draw with min degree d and is refused before any draw.
GNP_SPECS = {
    "gnp:2,0.5,2": False,
    "gnp:200,0.9,200": False,
    "gnp:6,0,1": False,
    "gnp:2,0,0": False,
    "gnp:1,0.5,0": True,
    "gnp:1,0,0": True,
    "gnp:4,0.5,3": True,
}


@pytest.mark.parametrize("text,feasible", GNP_SPECS.items(), ids=GNP_SPECS.keys())
def test_gnp_spec_feasibility(text, feasible):
    n, p, d = (float(x) if "." in x else int(x) for x in text.split(":")[1].split(","))
    if feasible:
        spec = sl.GraphSpec.parse(text)
        assert spec.params == (n, p, d)
        assert _connected_min_degree(sl.generate(spec, seed=3), d)
        return
    with pytest.raises(InfeasibleSpecError):
        sl.GraphSpec.parse(text)
    with pytest.raises(InfeasibleSpecError):
        sl.gnp_min_degree(n, p, d, NoDraws())


# regular:d,n specs by feasibility: d = 0 with n >= 2, or d = 1 with n >= 3,
# has no connected draw and is refused before any draw.
REGULAR_SPECS = {
    "regular:0,2": False,
    "regular:0,5": False,
    "regular:1,4": False,
    "regular:1,2000": False,
    "regular:0,1": True,
    "regular:1,2": True,
    "regular:2,3": True,
}


@pytest.mark.parametrize("text,feasible", REGULAR_SPECS.items(), ids=REGULAR_SPECS.keys())
def test_regular_spec_feasibility(text, feasible):
    d, n = (int(x) for x in text.split(":")[1].split(","))
    if feasible:
        spec = sl.GraphSpec.parse(text)
        assert spec.params == (d, n)
        g = sl.generate(spec, seed=3)
        assert g.is_connected() and g.common_degree == d
        return
    with pytest.raises(InfeasibleSpecError, match="is connected"):
        sl.GraphSpec.parse(text)
    with pytest.raises(InfeasibleSpecError, match="is connected"):
        sl.random_regular(d, n, NoDraws())


GRAPH_FILE_ERRORS = {
    # id: (file bytes or None for no file, error class, message template)
    "missing": (
        None,
        GraphError,
        "cannot read graph file {path}: [Errno 2] No such file or directory: '{path}'",
    ),
    "empty": (b"", GraphError, "{path}: empty graph file"),
    "comments-only": (b"# only a comment\n\n   \n", GraphError, "{path}: empty graph file"),
    "header-word": (b"oops\n", GraphError, "{path}: header must be 'n m'"),
    "header-short": (b"3\n", GraphError, "{path}: header must be 'n m'"),
    "header-long": (b"3 1 0\n0 1\n", GraphError, "{path}: header must be 'n m'"),
    "too-few-edges": (b"3 2\n0 1\n", GraphError, "{path}: expected 2 edge lines, found 1"),
    "too-many-edges": (
        b"3 1\n0 1\n1 2\n",
        GraphError,
        "{path}: expected 1 edge lines, found 2",
    ),
    "edge-word": (b"3 1\n0 x\n", GraphError, "{path}: bad edge line '0 x'"),
    "edge-short": (b"3 1\n0\n", GraphError, "{path}: bad edge line '0'"),
    "edge-long": (b"3 1\n0 1 2\n", GraphError, "{path}: bad edge line '0 1 2'"),
    "inline-comment": (
        b"3 1\n  0 1 # inline\n",
        GraphError,
        "{path}: bad edge line '0 1 # inline'",
    ),
    "vertex-high": (b"3 1\n0 3\n", VertexOutOfRangeError, "edge (0,3) outside 0..2"),
    "vertex-negative": (b"3 1\n-1 2\n", VertexOutOfRangeError, "edge (-1,2) outside 0..2"),
    "negative-n": (b"-1 0\n", VertexOutOfRangeError, "vertex count must be non-negative"),
    "self-loop": (b"3 1\n1 1\n", SelfLoopError, "self-loop at vertex 1"),
    "duplicate": (b"3 2\n0 1\n0 1\n", DuplicateEdgeError, "duplicate edge (0,1)"),
    "duplicate-reversed": (b"3 2\n2 1\n1 2\n", DuplicateEdgeError, "duplicate edge (1,2)"),
    # n > 2m + 1 leaves at least two isolated vertices; refused before any
    # per-vertex allocation.
    "isolated-pair": (
        b"2 0\n",
        DisconnectedGraphError,
        "{path}: 2 vertices but only 0 edges, so at least two are isolated",
    ),
    "huge-header": (
        b"2000000 0\n",
        DisconnectedGraphError,
        "{path}: 2000000 vertices but only 0 edges, so at least two are isolated",
    ),
    "non-ascii": (
        b"3 1\n0 \xff\n",
        GraphError,
        "cannot read graph file {path}: 'ascii' codec can't decode byte 0xff "
        "in position 6: ordinal not in range(128)",
    ),
    # Faults come in a fixed order, not in the order of the file.  A file
    # is decoded 8 KB at a time, so the padded byte 0xff is met only after
    # the fault before it; its position is counted from the file's start.
    "bad-line-and-count": (b"3 2\n0 x\n", GraphError, "{path}: expected 2 edge lines, found 1"),
    "bad-line-then-non-ascii": (
        b"3 2\n0 x\n" + b"#\n" * 5000 + b"1 \xff\n",
        GraphError,
        "cannot read graph file {path}: 'ascii' codec can't decode byte 0xff "
        "in position 10010: ordinal not in range(128)",
    ),
    "bad-header-then-non-ascii": (
        b"oops\n" + b"#\n" * 5000 + b"\xff\n",
        GraphError,
        "cannot read graph file {path}: 'ascii' codec can't decode byte 0xff "
        "in position 10005: ordinal not in range(128)",
    ),
    "huge-header-and-bad-line": (
        b"2000000 1\n0 x\n",
        DisconnectedGraphError,
        "{path}: 2000000 vertices but only 1 edges, so at least two are isolated",
    ),
}


@pytest.mark.parametrize(
    "data,cls,message", GRAPH_FILE_ERRORS.values(), ids=GRAPH_FILE_ERRORS.keys()
)
def test_graph_file_error_table(tmp_path, data, cls, message):
    path = tmp_path / "g.txt"
    if data is not None:
        path.write_bytes(data)
    with pytest.raises(GraphError) as info:
        sl.read_graph_file(path)
    assert type(info.value) is cls
    assert str(info.value) == message.format(path=path)


def test_graph_file_vertex_bound_is_inclusive(tmp_path):
    # n = 2m + 1 is still read: one isolated vertex beside one edge.
    path = tmp_path / "g.txt"
    path.write_bytes(b"3 1\n0 1\n")
    g = sl.read_graph_file(path)
    assert g.n == 3 and g.edges() == [(0, 1)]


def read_outcome(data: bytes):
    """Neighbour tuples or (error class, message) of each reader on ``data``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.txt")
        with open(path, "wb") as fh:
            fh.write(data)
        outcomes = []
        for read in (sl.read_graph_file, reference_read_graph_file):
            try:
                outcomes.append(read(path).neighbors)
            except GraphError as exc:
                outcomes.append((type(exc), str(exc)))
    return outcomes


@settings(max_examples=300, deadline=None)
@given(graph_file_bytes())
@example(b"4 3\n007 1\n+1 2\n1_0 3\n")  # endpoints only int() reads
@example(b"4 3\n0 1\n1 02\n2 3\n")  # a vertex spelled two ways
@example(b"3 2\n0 x\n" + b"# pad\n" * 3000 + b"1 \xff\n")  # decoded in a later block
def test_read_graph_file_matches_the_line_list_reference(data):
    got, want = read_outcome(data)
    assert got == want


def test_file_graph_holds_one_int_per_vertex(tmp_path):
    # Past 256, where CPython stops sharing small ints, the reader does it.
    g = sl.generate(sl.GraphSpec.parse("regular:4,300"), seed=1)
    path = tmp_path / "g.txt"
    sl.write_graph_file(g, path)
    read = sl.read_graph_file(path)
    assert read.neighbors == g.neighbors
    assert len({id(v) for nbrs in read.neighbors for v in nbrs}) == read.n == 300
