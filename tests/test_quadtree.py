import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from relspan.quadtree import (build_quadtree, build_wspd, normalize_unit, sibling_pairs,
                              wspd_point_pair_counts)
from relspan.spanner_euclidean import build_bounded_spread_spanner
from relspan.streams import substream

from oracles import cell_distance, quadtree_nodes, wspd_point_pair_counts_loop, wspd_recursive


def _points(seed, n, d=2):
    return substream(seed, "qt").random((n, d)) * 0.75 + 0.125


def _span(ptr, values, i) -> list[int]:
    return values[ptr[i]:ptr[i + 1]].tolist()


def _certificate_ok(tree, u, v, s) -> bool:
    dist = cell_distance(tree.cell_min[u], tree.cell_size[u], tree.cell_min[v], tree.cell_size[v])
    return s * max(tree.diameter[u], tree.diameter[v]) <= dist


def test_normalize_margin_and_scale():
    rng = substream(0, "norm")
    pts = rng.random((50, 2)) * 100 - 30
    normed, scale, offset = normalize_unit(pts)
    assert normed.min() >= 0.125 - 1e-12
    assert normed.max() < 0.875
    d_orig = np.linalg.norm(pts[3] - pts[17])
    d_norm = np.linalg.norm(normed[3] - normed[17])
    assert d_norm / scale == pytest.approx(d_orig, rel=1e-9)


@st.composite
def scaled_point_sets(draw):
    """2 to 10 points in d = 1..3 at a random scale and offset, with some
    rows copied and moved by a random, often sub-ulp, fraction of the scale
    along one axis (near-merging pairs and exact repeats), and the last
    point up to 2^60 scales away, so that the normalization may merge
    distinct rows."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(2, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = 2.0 ** draw(st.integers(-60, 60))
    pts = rng.random((n, d)) * scale + draw(st.sampled_from([0.0, 1.0, -3.5, 1e6])) * scale
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        pts[j] = pts[i]
        pts[j, draw(st.integers(0, d - 1))] += scale * 2.0 ** -draw(st.floats(0.0, 64.0))
    pts[-1, 0] += scale * 2.0 ** draw(st.floats(0.0, 60.0))
    return pts


def contract_outcome(pts, margin=0.125):
    """normalize_unit's verdict recomputed row by row in Python floats:
    "degenerate", "duplicate", "overflow", or the normalized rows."""
    rows = [tuple(r) for r in pts.tolist()]
    lo = [min(col) for col in zip(*rows)]
    extent = max(max(col) - low for col, low in zip(zip(*rows), lo))
    if extent <= 0:
        return "degenerate"
    scale = (1.0 - 2.0 * margin) / extent * (1.0 - 1e-12)
    normed = [tuple((x - low) * scale + margin for x, low in zip(r, lo)) for r in rows]
    if len(set(rows)) < len(rows):
        return "duplicate"
    if len(set(normed)) < len(normed):
        return "overflow"
    return normed


@given(scaled_point_sets())
def test_normalize_accepts_exactly_distinct_normalized_rows(pts):
    want = contract_outcome(pts)
    messages = {"degenerate": "^degenerate point set$",
                "duplicate": "^point set contains duplicate points$",
                "overflow": "^spread overflow: "}
    if isinstance(want, str):
        with pytest.raises(ValueError, match=messages[want]):
            normalize_unit(pts)
        return
    normed, _, _ = normalize_unit(pts)
    assert [tuple(r) for r in normed.tolist()] == want
    build_bounded_spread_spanner(pts, 0.5, "1/4").validate()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_normalize_rejects_non_finite_coordinates(bad):
    pts = _points(3, 10)
    pts[4, 1] = bad
    for check in (normalize_unit, build_quadtree):
        with pytest.raises(ValueError, match="^point set has non-finite coordinates$"):
            check(pts)


def test_leaves_are_singletons_and_partition():
    pts = _points(1, 80)
    tree = build_quadtree(pts, already_normalized=True)
    leaf_ids = []
    for node in range(tree.pad):
        ids = _span(tree.point_ptr, tree.point_ids, node)
        kids = _span(tree.child_ptr, tree.children, node)
        if not kids:
            assert len(ids) == 1
            leaf_ids += ids
        else:
            union = sorted(pid for c in kids for pid in _span(tree.point_ptr, tree.point_ids, c))
            assert union == sorted(ids)
    assert sorted(leaf_ids) == list(range(80))


def test_compression_keeps_node_count_linear():
    # two tight clusters far apart force long chains without compression
    rng = substream(2, "clusters")
    a = rng.random((20, 2)) * 1e-6 + 0.2
    b = rng.random((20, 2)) * 1e-6 + 0.7
    tree = build_quadtree(np.vstack([a, b]), already_normalized=True)
    assert tree.pad <= 4 * 40


def test_cell_distance():
    pts = np.array([[0.13, 0.13], [0.85, 0.85]])
    tree = build_quadtree(pts, already_normalized=True)
    a, b = _span(tree.child_ptr, tree.children, 0)
    d = cell_distance(tree.cell_min[a], tree.cell_size[a], tree.cell_min[b], tree.cell_size[b])
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
        for a in _span(tree.point_ptr, tree.point_ids, u):
            for b in _span(tree.point_ptr, tree.point_ids, v):
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
    nodes = quadtree_nodes(pts, already_normalized=True)
    pairs = build_wspd(tree, s)
    want = wspd_recursive(nodes, s)
    assert len(pairs) == len(want)
    assert pairs.u.tolist() == [u for u, _, _ in want]
    assert pairs.v.tolist() == [v for _, v, _ in want]
    # exact, inf included: the same float operations in the same order
    assert pairs.separation.tolist() == [sep for _, _, sep in want]
    assert wspd_point_pair_counts(tree, pairs).tolist() == wspd_point_pair_counts_loop(nodes, want)


def test_sibling_pairs_in_node_order():
    pts = _points(9, 50, 3)
    tree = build_quadtree(pts, already_normalized=True)
    want = [(node.id, a, b, node.children[a], node.children[b])
            for node in quadtree_nodes(pts, already_normalized=True).nodes
            for a in range(len(node.children)) for b in range(a + 1, len(node.children))]
    got = list(zip(*(arr.tolist() for arr in sibling_pairs(tree))))
    assert got == want


@st.composite
def quadtree_points(draw):
    """Points in [1/8, 7/8)^d: uniform, with near-duplicate pairs 1e-7 apart,
    or two tight clusters far apart (long compressed chains)."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shape = draw(st.sampled_from(["uniform", "near-duplicates", "clusters"]))
    if shape == "clusters":
        centers = np.where(np.arange(n)[:, None] < n // 2, 0.2, 0.7)
        return centers + rng.random((n, d)) * 1e-6
    pts = rng.random((n, d)) * 0.75 + 0.125
    if shape == "near-duplicates":
        half = n // 2
        pts[half:2 * half] = pts[:half] + 1e-7
    return pts


@given(quadtree_points())
def test_build_matches_node_oracle(pts):
    tree = build_quadtree(pts, already_normalized=True)
    want = quadtree_nodes(pts, already_normalized=True)
    m = len(want.nodes)
    assert tree.pad == m and tree.n_points == len(pts)
    # node ids and cell floats bit for bit
    assert tree.cell_min.tobytes() == np.array([nd.cell_min for nd in want.nodes]).tobytes()
    assert tree.cell_size.tobytes() == np.array([nd.cell_size for nd in want.nodes]).tobytes()
    assert tree.diameter.tolist() == [nd.diameter() for nd in want.nodes]
    assert tree.size.tolist() == [len(nd.point_ids) for nd in want.nodes] + [0]
    for nd in want.nodes:
        assert _span(tree.child_ptr, tree.children, nd.id) == nd.children
        ids = _span(tree.point_ptr, tree.point_ids, nd.id)
        assert ids == nd.point_ids.tolist() == sorted(ids)
    assert tree.postorder.tolist() == want.postorder()
    # each point's cells from the root down to its leaf, padded with m
    leaf_of = {int(nd.point_ids[0]): nd for nd in want.nodes if nd.is_leaf}
    height = tree.paths.shape[1]
    for pid, row in enumerate(tree.paths.tolist()):
        path = [leaf_of[pid].id]
        while want.nodes[path[-1]].parent is not None:
            path.append(want.nodes[path[-1]].parent)
        assert row == path[::-1] + [m] * (height - len(path))
    assert height == max(int((row < m).sum()) for row in tree.paths)


def test_depth_error_in_both_builders():
    pts = np.array([[1e-30], [2e-30]])
    for build in (build_quadtree, quadtree_nodes):
        with pytest.raises(ValueError, match="quadtree depth exceeded"):
            build(pts, already_normalized=True)
