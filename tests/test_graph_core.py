import math

import numpy as np
import pytest
from scipy.spatial import cKDTree
from scipy.spatial.distance import pdist

from relspan.graph_core import (PointSet, WeightedGraph, clean_vertex_set, load_edge_list,
                                load_points, shortest_path_pairs)
from relspan.streams import substream

from helpers import edge_set
from oracles import (floyd_warshall, monotone_reach_1d, monotone_reach_bruteforce,
                     shortest_path_length, shortest_path_matrix)


def path_graph(n):
    return WeightedGraph.from_pairs(n, range(n - 1), range(1, n), line=True)


def random_graph(n, m, seed, line=False):
    rng = substream(seed, "test-graph")
    u = rng.integers(0, n, size=m)
    v = rng.integers(0, n, size=m)
    if line:
        return WeightedGraph.from_pairs(n, u, v, line=True)
    pos = rng.random((n, 2))
    return WeightedGraph.from_pairs(n, u, v, positions=pos)


def test_path_graph_distances():
    g = path_graph(3)
    dist = shortest_path_length(g, [], 0)
    assert dist.tolist() == [0.0, 1.0, 2.0]


def test_cut_vertex_disconnects():
    g = path_graph(3)
    dist = shortest_path_length(g, [1], 0)
    assert dist[0] == 0.0
    assert math.isinf(dist[2])
    assert math.isinf(dist[1])


def test_dead_source_rejected():
    g = path_graph(3)
    with pytest.raises(ValueError, match="source in failure set"):
        shortest_path_length(g, [0], 0)


def test_matches_floyd_warshall_oracle():
    g = random_graph(12, 30, seed=5)
    edges = list(zip(g.u.tolist(), g.v.tolist(), g.w.tolist()))
    for bad in ([], [2, 7]):
        expect = floyd_warshall(12, edges, bad)
        alive = [i for i in range(12) if i not in bad]
        s, t = np.repeat(alive, 12), np.tile(np.arange(12), len(alive))
        got = shortest_path_pairs(g, bad, s, t)
        for src, dst, dist in zip(s.tolist(), t.tolist(), got.tolist()):
            if dst in bad:
                assert math.isinf(dist)
            else:
                assert dist == pytest.approx(expect[src][dst], rel=1e-9)


def test_pair_distances_match_the_matrix():
    # 290 distinct sources span two blocks; pairs repeat and come unsorted
    g = random_graph(300, 900, seed=6)
    bad = [4, 100, 299]
    alive = np.setdiff1d(np.arange(300), bad)
    rng = substream(7, "pairs")
    s, t = rng.choice(alive, size=2000), rng.integers(0, 300, size=2000)
    s[:300] = np.repeat(alive[:10], 30)
    full = shortest_path_matrix(g, bad, alive)
    assert np.array_equal(shortest_path_pairs(g, bad, s, t),
                          full[np.searchsorted(alive, s), t])
    assert shortest_path_pairs(g, bad, [], []).size == 0
    with pytest.raises(ValueError, match="source in failure set"):
        shortest_path_pairs(g, bad, [1, 100], [2, 3])


def test_distance_symmetry():
    g = random_graph(16, 40, seed=9)
    d0 = shortest_path_length(g, [], 3)
    d1 = shortest_path_length(g, [], 11)
    assert d0[11] == pytest.approx(d1[3], rel=1e-9)


def test_removals_never_shorten():
    g = random_graph(20, 60, seed=11)
    small = [4]
    large = [4, 9, 15]
    d_small = shortest_path_length(g, small, 0)
    d_large = shortest_path_length(g, large, 0)
    for t in range(20):
        if t in large:
            continue
        assert d_large[t] >= d_small[t] - 1e-12


def test_monotone_reach_examples():
    # edges {(1,2),(2,4)} in 1-based becomes {(0,1),(1,3)} on n=4
    g = WeightedGraph.from_pairs(4, [0, 1], [1, 3], line=True)
    assert monotone_reach_1d(g, [], 0, "right").tolist() == [1, 3]
    assert monotone_reach_1d(g, [1], 0, "right").tolist() == []


def test_monotone_reach_requires_alive_source():
    g = path_graph(4)
    with pytest.raises(ValueError):
        monotone_reach_1d(g, [2], 2, "right")


@pytest.mark.parametrize("source", [8, 10, -1])
def test_monotone_reach_rejects_out_of_range_source(source):
    g = path_graph(8)
    with pytest.raises(ValueError, match="out of range"):
        monotone_reach_1d(g, [], source)


@pytest.mark.parametrize("seed", range(6))
def test_monotone_reach_matches_bruteforce(seed):
    n = 64
    g = random_graph(n, 150, seed=seed, line=True)
    edges = list(zip(g.u.tolist(), g.v.tolist(), g.w.tolist()))
    rng = substream(seed, "reach-bad")
    bad = rng.choice(n, size=8, replace=False)
    src = next(int(s) for s in rng.integers(0, n, size=50) if s not in set(bad.tolist()))
    for direction in ("right", "left"):
        got = set(monotone_reach_1d(g, bad, src, direction).tolist())
        want = monotone_reach_bruteforce(n, edges, src, bad.tolist(), direction)
        assert got == want


def test_monotone_reach_is_exact_distance_set():
    n = 48
    g = random_graph(n, 120, seed=3, line=True)
    bad = [5, 20]
    src = 2
    reach = set(monotone_reach_1d(g, bad, src, "right").tolist())
    dist = shortest_path_length(g, bad, src)
    exact = {t for t in range(src + 1, n)
             if t not in bad and dist[t] == pytest.approx(t - src, rel=1e-9)}
    assert reach == exact


def test_constructor_dedups_and_drops_loops():
    g = WeightedGraph.from_pairs(4, [0, 0, 1, 2], [1, 1, 0, 2], line=True)
    assert g.edge_count == 1
    assert edge_set(g) == {(0, 1)}
    g.validate()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_from_pairs_rejects_non_finite_weights(bad):
    pos = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    pos[2, 1] = bad
    with pytest.raises(ValueError, match="non-finite edge weight"):
        WeightedGraph.from_pairs(3, [0, 1], [1, 2], positions=pos)
    WeightedGraph.from_pairs(3, [0], [1], positions=pos).validate()  # no edge at point 2


def test_out_of_range_edges_rejected():
    with pytest.raises(ValueError):
        WeightedGraph.from_pairs(3, [0], [3], line=True)


@pytest.mark.parametrize("u, v", [([1, 0], [2, 3]), ([0, 0], [2, 2])],
                         ids=["unsorted", "duplicate"])
def test_validate_rejects_unsorted_or_duplicate_edges(u, v):
    g = WeightedGraph(4, np.array(u), np.array(v), np.ones(2))
    with pytest.raises(AssertionError, match="sorted and unique"):
        g.validate()


def test_load_canonicalizes_a_dirty_edge_list(tmp_path):
    path = tmp_path / "dirty.txt"
    path.write_text("2 1 1.0\n0 3 5.0\n2 1 1.0\n1 1 1.0\n")
    g = load_edge_list(path, n=4)
    assert g.u.tolist() == [0, 1] and g.v.tolist() == [3, 2]
    assert g.w.tolist() == [1.0, 1.0]
    g.validate()


def test_edge_list_roundtrip(tmp_path):
    g = random_graph(10, 25, seed=7)
    path = tmp_path / "edges.txt"
    g.save_edges(path)
    back = load_edge_list(path, n=10, positions=g.positions)
    assert edge_set(back) == edge_set(g)
    assert np.allclose(back.w, g.w)
    back.validate()


def test_pointset_derived_quantities():
    pts = PointSet(np.array([[0.0, 0.0], [3.0, 4.0], [0.0, 1.0]]))
    assert pts.diameter == pytest.approx(5.0)
    assert pts.closest_pair == pytest.approx(1.0)
    assert pts.spread == pytest.approx(5.0)


@pytest.mark.parametrize("d", range(1, 8))
def test_pointset_extremes_match_scipy_spatial(d):
    # bit for bit: below 8 coordinates numpy sums the squares in order, as
    # cKDTree and pdist do; 1030 points cross the 1024-row chunk
    rng = substream(d, "extremes")
    for n in (2, 3, 40, 1030):
        for _ in range(2 if n > 100 else 10):
            pts = rng.random((n, d)) * 10.0 ** rng.integers(-3, 4)
            ps = PointSet(pts)
            assert ps.closest_pair == cKDTree(pts).query(pts, k=2)[0][:, 1].min()
            assert ps.diameter == pdist(pts).max()


def test_pointset_rejects_duplicates():
    with pytest.raises(ValueError, match="^point set contains duplicate points$"):
        PointSet(np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0]]))


def test_pointset_of_a_pointset_is_itself():
    ps = PointSet(np.array([[0.0, 0.0], [1.0, 1.0]]))
    assert PointSet(ps) is ps
    assert not ps.coords.flags.writeable and not ps.normed.flags.writeable


def test_load_points_rejects_ragged_rows(tmp_path):
    path = tmp_path / "pts.txt"
    path.write_text("\n0.0 1.0\n2.0 3.0\n\n4.0 5.0 6.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 5 has 3 coordinates, line 2 has 2"):
        load_points(path)
    path.write_text("0.0 1.0\n2.0 3.0\n4.0 5.0\n", encoding="utf-8")
    assert load_points(path).coords.shape == (3, 2)


@pytest.mark.parametrize("line", [True, False], ids=["line", "euclidean"])
def test_from_pairs_gives_sorted_input_the_same_arrays(line):
    n = 60
    rng = np.random.default_rng(11)
    u, v = np.triu_indices(n, k=1)
    keep = rng.random(u.size) < 0.3
    u, v = u[keep], v[keep]
    pos = None if line else rng.random((n, 2))
    want = WeightedGraph.from_pairs(n, u, v, positions=pos, line=line)
    assert not np.shares_memory(want.u, u) and u.flags.writeable
    perm = rng.permutation(u.size)
    dup = rng.integers(0, u.size, size=u.size // 2)
    for a, b in [(u[perm], v[perm]), (v, u), (u[::-1], v[::-1]),
                 (np.r_[u, u[dup]], np.r_[v, v[dup]]), (np.r_[u, 7], np.r_[v, 7])]:
        got = WeightedGraph.from_pairs(n, a, b, positions=pos, line=line)
        for name in ("u", "v", "w"):
            assert getattr(got, name).dtype == getattr(want, name).dtype
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))


def test_clean_vertex_set_sorts_only_unsorted_ids():
    assert clean_vertex_set([5, 1, 5, 0], 6).tolist() == [0, 1, 5]
    assert clean_vertex_set([0, 1, 1, 5], 6).tolist() == [0, 1, 5]
    ids = np.array([0, 2, 5], dtype=np.int64)
    assert np.shares_memory(clean_vertex_set(ids, 6), ids)
    assert clean_vertex_set([], 6).size == 0
