import itertools

import numpy as np
import pytest

from relspan.quadtree import (build_quadtree, build_wspd, normalize_unit, sibling_pairs,
                              wspd_point_pair_counts)
from relspan.streams import substream

from oracles import cell_distance, wspd_point_pair_counts_loop, wspd_recursive


def _points(seed, n, d=2):
    return substream(seed, "qt").random((n, d)) * 0.75 + 0.125


def _certificate_ok(tree, u, v, s) -> bool:
    a, b = tree.nodes[u], tree.nodes[v]
    return s * max(a.diameter(), b.diameter()) <= cell_distance(a, b)


def test_normalize_margin_and_scale():
    rng = substream(0, "norm")
    pts = rng.random((50, 2)) * 100 - 30
    normed, scale, offset = normalize_unit(pts)
    assert normed.min() >= 0.125 - 1e-12
    assert normed.max() < 0.875
    d_orig = np.linalg.norm(pts[3] - pts[17])
    d_norm = np.linalg.norm(normed[3] - normed[17])
    assert d_norm / scale == pytest.approx(d_orig, rel=1e-9)


def test_leaves_are_singletons_and_partition():
    pts = _points(1, 80)
    tree = build_quadtree(pts, already_normalized=True)
    leaf_ids = []
    for node in tree.nodes:
        if node.is_leaf:
            assert len(node.point_ids) == 1
            leaf_ids.append(int(node.point_ids[0]))
        else:
            union = np.sort(np.concatenate(
                [tree.nodes[c].point_ids for c in node.children]))
            assert union.tolist() == np.sort(node.point_ids).tolist()
    assert sorted(leaf_ids) == list(range(80))


def test_compression_keeps_node_count_linear():
    # two tight clusters far apart force long chains without compression
    rng = substream(2, "clusters")
    a = rng.random((20, 2)) * 1e-6 + 0.2
    b = rng.random((20, 2)) * 1e-6 + 0.7
    tree = build_quadtree(np.vstack([a, b]), already_normalized=True)
    assert len(tree.nodes) <= 4 * 40


def test_cell_distance():
    pts = np.array([[0.13, 0.13], [0.85, 0.85]])
    tree = build_quadtree(pts, already_normalized=True)
    kids = tree.nodes[tree.root].children
    d = cell_distance(tree.nodes[kids[0]], tree.nodes[kids[1]])
    assert d >= 0.0


def test_wspd_two_points():
    pts = np.array([[0.2, 0.2], [0.8, 0.8]])
    tree = build_quadtree(pts, already_normalized=True)
    pairs = build_wspd(tree, 12.0)
    assert len(pairs) == 1


def test_wspd_requires_positive_separation():
    pts = _points(3, 8)
    tree = build_quadtree(pts, already_normalized=True)
    with pytest.raises(ValueError):
        build_wspd(tree, 0.0)


@pytest.mark.parametrize("seed,n,s", [(4, 24, 2.0), (5, 48, 6.0), (6, 64, 12.0)])
def test_wspd_covers_every_pair_exactly_once(seed, n, s):
    pts = _points(seed, n)
    tree = build_quadtree(pts, already_normalized=True)
    pairs = build_wspd(tree, s)
    cover = {frozenset(pq): 0 for pq in itertools.combinations(range(n), 2)}
    for u, v in zip(pairs.u.tolist(), pairs.v.tolist()):
        for a in tree.nodes[u].point_ids.tolist():
            for b in tree.nodes[v].point_ids.tolist():
                cover[frozenset((a, b))] += 1
    assert all(c == 1 for c in cover.values())


def test_wspd_certificates_replay(seed=7):
    pts = _points(seed, 40)
    tree = build_quadtree(pts, already_normalized=True)
    s = 6.0
    pairs = build_wspd(tree, s)
    for u, v in zip(pairs.u.tolist(), pairs.v.tolist()):
        assert _certificate_ok(tree, u, v, s)


def test_wspd_membership_counts():
    pts = _points(8, 32)
    tree = build_quadtree(pts, already_normalized=True)
    pairs = build_wspd(tree, 4.0)
    counts = wspd_point_pair_counts(tree, pairs)
    assert counts.shape == (32,)
    assert counts.min() >= 1


@pytest.mark.parametrize("d,n", [(1, 70), (2, 60), (3, 40)])
@pytest.mark.parametrize("s", [2.0, 6.0, 12.0])
def test_wspd_matches_recursive_oracle(d, n, s):
    # a few close pairs as well, so that some cells have diameter 0 on one side
    pts = _points(40 + d, n, d)
    pts[1::7] = pts[::7][:len(pts[1::7])] + 1e-7
    tree = build_quadtree(pts, already_normalized=True)
    pairs = build_wspd(tree, s)
    want = wspd_recursive(tree, s)
    assert len(pairs) == len(want)
    assert pairs.u.tolist() == [u for u, _, _ in want]
    assert pairs.v.tolist() == [v for _, v, _ in want]
    # exact, inf included: the same float operations in the same order
    assert pairs.separation.tolist() == [sep for _, _, sep in want]
    assert wspd_point_pair_counts(tree, pairs).tolist() == wspd_point_pair_counts_loop(tree, want)


def test_sibling_pairs_in_node_order():
    tree = build_quadtree(_points(9, 50, 3), already_normalized=True)
    want = [(node.id, a, b, node.children[a], node.children[b]) for node in tree.nodes
            for a in range(len(node.children)) for b in range(a + 1, len(node.children))]
    got = list(zip(*(arr.tolist() for arr in sibling_pairs(tree))))
    assert got == want


def test_tree_arrays_are_built_once_on_demand():
    tree = build_quadtree(_points(10, 30), already_normalized=True)
    assert "arrays" not in vars(tree)
    arrays = tree.arrays
    assert tree.arrays is arrays
    for node in tree.nodes:
        lo, hi = arrays.point_ptr[node.id], arrays.point_ptr[node.id + 1]
        assert arrays.point_ids[lo:hi].tolist() == node.point_ids.tolist()
        lo, hi = arrays.child_ptr[node.id], arrays.child_ptr[node.id + 1]
        assert arrays.children[lo:hi].tolist() == node.children
        assert arrays.diameter[node.id] == node.diameter()
