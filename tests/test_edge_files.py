"""Edge files: the vectorized "u v" writer against edge_text_py, the
np.loadtxt reader's contract, the save -> load_graph round trip, and the
writer's memory bound on an 8.4 M-edge graph."""

import json
import os
import subprocess
import sys
import tempfile
import textwrap
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from relspan import graph_core
from relspan.cli import load_graph, save_graph
from relspan.graph_core import WeightedGraph, load_edge_list

from oracles import edge_text_py

# every digit-count boundary from 0 up to 2^40
DIGIT_BOUNDARIES = sorted({0, 2 ** 31 - 1, 2 ** 40}
                          | {x for k in range(1, 13) for x in (10 ** k - 1, 10 ** k)})


def raw_graph(u, v) -> WeightedGraph:
    """A graph over the given id arrays as they are: ids past 2^31.5 would
    overflow from_pairs' packed sort key, and the writer needs none of it."""
    u, v = np.asarray(u, dtype=np.int64), np.asarray(v, dtype=np.int64)
    return WeightedGraph(2 ** 40 + 1, u, v, np.ones(u.size))


def saved_bytes(g, path) -> bytes:
    g.save_edges(path)
    return path.read_bytes()


@pytest.mark.parametrize("x", DIGIT_BOUNDARIES)
def test_save_writes_decimal_lines_at_digit_boundary(tmp_path, x):
    # x is the widest id of the file, in either column
    u, v = [0, x, x, 7], [x, 0, x, 7]
    assert saved_bytes(raw_graph(u, v), tmp_path / "e") == edge_text_py(u, v).encode()


def test_save_mixes_every_width_in_one_chunk(tmp_path):
    u, v = np.meshgrid(DIGIT_BOUNDARIES, DIGIT_BOUNDARIES)
    g = raw_graph(u.ravel(), v.ravel())
    assert saved_bytes(g, tmp_path / "e") == edge_text_py(g.u, g.v).encode()


def test_save_edgeless_graph_writes_an_empty_file(tmp_path):
    g = WeightedGraph.from_pairs(5, [], [], line=True)
    assert saved_bytes(g, tmp_path / "e") == b""
    back = load_edge_list(tmp_path / "e", n=5, line=True)
    assert back.n == 5 and back.edge_count == 0


def test_save_spans_several_chunks(tmp_path, monkeypatch):
    monkeypatch.setattr(graph_core, "SAVE_CHUNK", 7)
    rng = np.random.default_rng(9)
    # ids of 1 to 7 digits, so the chunks differ in width
    ids = (10.0 ** rng.uniform(0, 7, size=(2, 100))).astype(np.int64)
    g = WeightedGraph.from_pairs(10 ** 7, ids[0], ids[1], line=True)
    assert g.edge_count > 5 * 7
    assert saved_bytes(g, tmp_path / "e") == edge_text_py(g.u, g.v).encode()
    back = load_edge_list(tmp_path / "e", n=g.n, line=True)
    assert np.array_equal(back.u, g.u) and np.array_equal(back.v, g.v)


# -- the reader ---------------------------------------------------------------

LINE_GRAPH_FILES = {
    "two fields": "2 1\n0 3\n2 1\n",
    "three fields": "2 1 1.0\n0 3 3.0\n2 1 1.0\n",
    "mixed": "2 1\n0 3 3.0\n2 1 junk\n",
    "blank lines": "\n2 1\n   \n\t\n0 3\n\n2 1\n\n",
}


@pytest.mark.parametrize("text", LINE_GRAPH_FILES.values(), ids=LINE_GRAPH_FILES.keys())
def test_load_ignores_fields_after_the_second_and_blank_lines(tmp_path, text):
    path = tmp_path / "e"
    path.write_text(text)
    g = load_edge_list(path, n=4, line=True)
    assert g.u.tolist() == [0, 1] and g.v.tolist() == [3, 2]
    assert g.w.tolist() == [3.0, 1.0]


@pytest.mark.parametrize("text", ["0 1\n3\n", "0 1.5\n", "x 1\n", "# note\n0 1\n"],
                         ids=["one field", "fraction", "word", "comment"])
def test_load_rejects_a_line_without_two_integer_ids(tmp_path, text):
    path = tmp_path / "e"
    path.write_text(text)
    with pytest.raises(ValueError):
        load_edge_list(path, n=4)


@pytest.mark.parametrize("text", ["", "\n", "  \n\t\n"], ids=["empty", "newline", "blanks"])
def test_load_empty_file_is_edgeless_without_warning(tmp_path, text):
    path = tmp_path / "e"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        inferred = load_edge_list(path)
        sized = load_edge_list(path, n=6, line=True)
    assert inferred.n == 0 and inferred.edge_count == 0
    assert sized.n == 6 and sized.edge_count == 0 and sized.w.dtype == np.float64


def test_load_infers_n_from_the_largest_id(tmp_path):
    path = tmp_path / "e"
    path.write_text("3 1\n0 41\n")
    g = load_edge_list(path)
    assert g.n == 42 and g.u.tolist() == [0, 1] and g.v.tolist() == [41, 3]


def test_load_rejects_n_past_the_int64_edge_keys(tmp_path):
    # n = 2^32 + 1: the key lo * n + hi of this edge would wrap to (0, 2^32 - 1)
    path = tmp_path / "e"
    path.write_text("4294967295 4294967296\n")
    with pytest.raises(ValueError, match=r"^n = 4294967297 exceeds 3037000499, "):
        load_edge_list(path)
    assert WeightedGraph.from_pairs(graph_core.MAX_N, [0], [1]).edge_count == 1


# -- save_graph -> load_graph --------------------------------------------------

def assert_roundtrip_identical(g):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "g.edges")
        save_graph(g, out, {"command": "test"})
        back = load_graph(out)
    assert back.n == g.n and back.meta == g.meta
    for name in ("u", "v", "w"):
        a, b = getattr(g, name), getattr(back, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


@st.composite
def id_pairs(draw, n):
    ids = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(ids, ids), max_size=80))
    return [a for a, _ in pairs], [b for _, b in pairs]


@given(st.integers(1, 3000).flatmap(lambda n: st.tuples(st.just(n), id_pairs(n))))
def test_line_graph_roundtrip_is_bit_identical(case):
    n, (u, v) = case
    assert_roundtrip_identical(WeightedGraph.from_pairs(n, u, v, line=True))


@given(st.integers(1, 60), st.sampled_from([1, 2, 3]), st.sampled_from([1e-9, 1.0, 1e9]),
       st.integers(0, 2 ** 32 - 1), st.integers(0, 200))
def test_euclidean_graph_roundtrip_is_bit_identical(n, d, scale, seed, m):
    rng = np.random.default_rng(seed)
    points = (rng.random((n, d)) - 0.5) * scale
    u, v = rng.integers(0, n, size=(2, m))
    assert_roundtrip_identical(WeightedGraph.from_pairs(n, u, v, positions=points))


# -- memory --------------------------------------------------------------------

LARGE_SAVE = textwrap.dedent("""
    import json, resource, sys
    from fractions import Fraction
    from relspan.spanner1d import build_G_theta

    def peak_mb():
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    g = build_G_theta(4096, Fraction(1, 2), c=8, mode="experimental", seed=501)
    built = peak_mb()
    g.save_edges(sys.argv[1])
    print(json.dumps({"edges": g.edge_count, "built_mb": built, "saved_mb": peak_mb()}))
""")


def test_saving_8m_edges_keeps_peak_rss(tmp_path):
    path = tmp_path / "large.edges"
    res = subprocess.run([sys.executable, "-c", LARGE_SAVE, str(path)],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout)
    assert out["edges"] == 8_386_560
    assert out["saved_mb"] - out["built_mb"] < 100
