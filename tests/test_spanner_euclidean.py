import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest

from relspan.graph_core import EdgeSink, PointSet, WeightedGraph, shortest_path_pairs
from relspan.harness import Certifier, certify
from relspan.lso import build_ordering_family, sort_by_ordering
from relspan.spanner1d import build_G_theta
from relspan.quadtree import normalize_unit
from relspan.spanner_euclidean import (NORM_MARGIN, build_bounded_spread_spanner,
                                       build_hd_spanner, hd_config, union_over_orderings)
from relspan.streams import substream

from helpers import edge_set, graph_sha256
from oracles import bounded_spread_oracle, dijkstra_py, shortest_path_matrix


def jittered_grid(rows, cols, seed=0, jitter=0.2):
    rng = substream(seed, "grid")
    xs, ys = np.meshgrid(np.arange(cols, dtype=np.float64),
                         np.arange(rows, dtype=np.float64))
    pts = np.stack([xs.ravel(), ys.ravel()], axis=1)
    return pts + rng.uniform(-jitter, jitter, size=pts.shape)


def all_pairs_stretch(g, bad=()):
    alive = np.setdiff1d(np.arange(g.n), np.asarray(list(bad), dtype=np.int64))
    dist = shortest_path_matrix(g, bad, alive)
    pos = g.positions
    worst = 0.0
    for row, s in enumerate(alive.tolist()):
        for t in alive.tolist():
            if t <= s:
                continue
            de = float(np.linalg.norm(pos[s] - pos[t]))
            worst = max(worst, dist[row][t] / de)
    return worst


# ---------------------------------------------------------------------------
# bounded spread
# ---------------------------------------------------------------------------

def test_bounded_spread_two_points():
    pts = np.array([[0.0, 0.0], [5.0, 1.0]])
    g = build_bounded_spread_spanner(pts, 0.5, "1/4", seed=0)
    assert g.edge_count == 1
    assert g.w[0] == pytest.approx(np.linalg.norm(pts[1] - pts[0]))


@pytest.mark.parametrize("pts", [np.array([[0.5]]), np.array([[0.5, 0.5]])])
def test_bounded_spread_needs_two_points(pts):
    with pytest.raises(ValueError, match="need at least 2 points"):
        build_bounded_spread_spanner(pts, 0.5, "1/4")


@pytest.mark.parametrize("build", [build_bounded_spread_spanner, build_hd_spanner])
def test_builders_reject_duplicate_points(build):
    pts = substream(23, "dup").random((20, 2))
    pts[13] = pts[4]
    with pytest.raises(ValueError, match="^point set contains duplicate points$"):
        build(pts, 0.5, "1/4")


def test_bounded_spread_parameter_validation():
    pts = jittered_grid(4, 4)
    with pytest.raises(ValueError):
        build_bounded_spread_spanner(pts, 0.5, "3/4")
    with pytest.raises(ValueError):
        build_bounded_spread_spanner(pts, 1.5, "1/4")


def test_bounded_spread_stretch_no_failures():
    pts = jittered_grid(8, 8, seed=1)
    g = build_bounded_spread_spanner(pts, 0.5, "1/4", seed=2)
    g.validate()
    assert all_pairs_stretch(g) <= 1.5 * (1 + 1e-9)


def test_bounded_spread_scipy_vs_heap_oracle():
    pts = jittered_grid(5, 5, seed=3)
    g = build_bounded_spread_spanner(pts, 0.5, "1/4", seed=4)
    edges = list(zip(g.u.tolist(), g.v.tolist(), g.w.tolist()))
    bad = [3, 12]
    alive = [v for v in range(g.n) if v not in bad]
    for s in alive[::6]:
        want = dijkstra_py(g.n, edges, s, bad)
        dist = shortest_path_pairs(g, bad, [s] * len(alive), alive)
        for t, got in zip(alive, dist.tolist()):
            if math.isinf(want[t]):
                assert math.isinf(got)
            else:
                assert got == pytest.approx(want[t], rel=1e-9)


def test_bounded_spread_metadata():
    pts = jittered_grid(6, 6, seed=5)
    g = build_bounded_spread_spanner(pts, 0.5, "1/4", seed=6)
    meta = g.meta
    assert meta["kind"] == "bounded_spread"
    assert meta["xi"] == str(Fraction(1, 32))
    assert meta["gamma"] == str(Fraction(7, 8))
    assert meta["wspd_pairs"] > 0
    assert meta["wspd_max_membership"] >= 1


def test_bounded_spread_spread_guard():
    pts = np.array([[0.0, 0.0], [1e-19, 0.0], [1.0, 1.0], [0.33, 0.25]],
                   dtype=np.float64)
    with pytest.raises(ValueError, match="spread overflow"):
        build_bounded_spread_spanner(pts, 0.5, "1/4")


def _far_pairs(d, e):
    """A unit-distance pair and, 2^e away, a second one (in d = 1 a single
    point, as 2^e + 1 rounds to 2^e): log2(spread) is e."""
    if d == 1:
        return np.array([[0.0], [1.0], [2.0 ** e]])
    pts = np.zeros((4, d))
    pts[1, d - 1] = pts[3, d - 1] = 1.0
    pts[2:, 0] += 2.0 ** e
    return pts


@pytest.mark.parametrize("d", [1, 2, 3])
def test_spread_limit_is_checked_up_front(d):
    # a sufficient bound from the roundings of the normalization into
    # [1/8, 7/8)^d (50.08 in d = 2): every set below it builds
    rounding_bound = math.log2(0.75 * (1.0 - 1e-12) / math.sqrt(d)) + 51
    # the exact limit: the unit pair's normalized gap, 0.75 / 2^e, stays
    # above half an ulp of 1/8 (2^-56) up to e = 56 - log2(4/3) = 55.58
    for e in (rounding_bound - 1e-9, 55.5):
        pts = _far_pairs(d, e)
        assert math.log2(PointSet(pts).spread) == pytest.approx(e)
        g = build_bounded_spread_spanner(pts, 0.5, "1/4")
        g.validate()
        assert g.u.size == len(pts) * (len(pts) - 1) // 2  # all points distinct, all joined
        rep = certify(g, [])
        assert rep.passed and rep.bplus_size == 0
    for e in (55.75, 56, 58, 60):  # the unit pair merges into one normalized row
        with pytest.raises(ValueError, match="^spread overflow: points 0 and 1 "):
            build_bounded_spread_spanner(_far_pairs(d, e), 0.5, "1/4")


def _pin_points(shape):
    rng = substream(7, "pin-grid")
    cells = np.indices(shape).reshape(len(shape), -1).T.astype(np.float64)
    return cells + rng.uniform(-0.3, 0.3, size=cells.shape)


# (grid shape, epsilon, degree_constant_override): saturated, then sampled
# regimes; with c = 10, a 16 x 33 block is saturated but 16 x 32 is sampled
REGIMES = [((64,), 0.5, None), ((6, 8), 0.5, None), ((4, 4, 3), 0.5, None),
           ((128,), 0.5, 2), ((8, 8), 0.5, 2), ((4, 4, 3), 0.9, 2),
           ((256,), 0.99, 10), ((8, 8), 0.99, 10), ((4, 4, 4), 0.99, 10)]


@pytest.mark.parametrize("shape,eps,c", REGIMES)
def test_bounded_spread_matches_per_pair_oracle(shape, eps, c):
    pts = _pin_points(shape)
    g = build_bounded_spread_spanner(pts, eps, Fraction(1, 4), seed=11,
                                     degree_constant_override=c)
    n, u, v, meta = bounded_spread_oracle(pts, eps, Fraction(1, 4), seed=11, c_override=c)
    want = WeightedGraph.from_pairs(n, np.asarray(u, dtype=np.int64),
                                    np.asarray(v, dtype=np.int64), positions=pts, meta=meta)
    assert np.array_equal(g.u, want.u) and np.array_equal(g.v, want.v)
    assert np.array_equal(g.w, want.w)
    assert g.meta == want.meta


# sha256 of (edges, meta) pinned from the per-pair emission; the sampled
# regimes leave pairs out, so their draws and ("wspd", i) labels show
PINS = [
    (((8, 8), 0.5, None), 2016,
     "1206a220e3daa95668257113bbc7db107009282df62b6c982021a73927eccf52",
     "bb441e31739c40a838c751bc83af40a7edb5c7b6b18c1a06b6226dd8a2d129e9"),
    (((128,), 0.5, 2), 7839,
     "ecd8062c14089d314c9b9fc4b39465ba5eb9e592461de56531a6e8586ee9f580",
     "729dc73731fff0b7cfd5511687e878e33011d226a63d40021597932ff32d5227"),
    (((256,), 0.99, 10), 32214,
     "231aa3563611d7dfe46d0b3cfad05968eae9a9e236cb859ec93923da5e24c85e",
     "98098b5820a13e2312ecad3a496cd0acd87b1195fd9b3b1d685200d3d2855b1f"),
]


@pytest.mark.parametrize("regime,edges,edges_sha,meta_sha", PINS)
def test_bounded_spread_golden_hashes(regime, edges, edges_sha, meta_sha):
    shape, eps, c = regime
    g = build_bounded_spread_spanner(_pin_points(shape), eps, Fraction(1, 4), seed=11,
                                     degree_constant_override=c)
    assert g.u.size == edges
    assert graph_sha256(g) == (edges_sha, meta_sha)


def test_saturated_sibling_block_is_emitted():
    # 16 points near 0.13 and, in the other half, 32 near 0.85 plus one at
    # 0.55: the root's sibling block is 16 x 33, saturated at c = 10, while
    # the WSPD pair of the 16 and the 32 is 16 x 32 and sampled, so the
    # saturated sibling block adds pairs that the WSPD leaves out
    pts = np.concatenate([0.13 + np.arange(16) * 1e-3, 0.85 + np.arange(32) * 1e-3,
                          [0.55]])[:, None]
    g = build_bounded_spread_spanner(pts, 0.5, "1/4", seed=11, degree_constant_override=10)
    assert g.u.size == 49 * 48 // 2


def test_sample_budget_is_exact_past_int64():
    pts = _pin_points((6, 8))
    theta = Fraction(1, 1 << 22)
    g = build_bounded_spread_spanner(pts, 0.5, theta, seed=3)
    meta = bounded_spread_oracle(pts, 0.5, theta, seed=3)[3]
    assert g.meta["sample_budget"] == meta["sample_budget"] > (1 << 63)
    assert type(g.meta["sample_budget"]) is int


# ---------------------------------------------------------------------------
# ordering-union construction
# ---------------------------------------------------------------------------

def test_hd_config_formulas():
    cfg = hd_config(256, 2, 0.5, Fraction(1, 2), "improved", 16)
    assert cfg["rounds"] == 4  # ceil(log2 log2 256) + 1
    assert cfg["sigma"] == 0.5 / 16
    assert cfg["theta_prime"] == Fraction(1, 2) / (3 * 4 * cfg["M"])
    cfg5 = hd_config(512, 2, 0.5, Fraction(1, 2), "improved", 16)
    assert cfg5["rounds"] == 5
    simple = hd_config(256, 2, 0.5, Fraction(1, 2), "simple", 16)
    assert simple["rounds"] == 1
    assert simple["sigma"] == 0.5 / (16 * 8)
    assert simple["theta_prime"] == Fraction(1, 2) / simple["M"]


def largest_c2(d: int, epsilon: float) -> int:
    """The largest c2 whose sigma = epsilon / c2 keeps the family's band
    within 2^20 - 1 grid cells: 0.72 sqrt(d) / sigma <= 2^20 - 1."""
    def ok(c2):
        return 0.72 * math.sqrt(d) / (epsilon / c2) <= 2 ** 20 - 1
    c2 = int(epsilon * (2 ** 20 - 1) / (0.72 * math.sqrt(d)))
    while not ok(c2):
        c2 -= 1
    while ok(c2 + 1):
        c2 += 1
    return c2


def test_hd_config_sigma_limit():
    c2 = largest_c2(2, 0.5)
    cfg = hd_config(100, 2, 0.5, "1/2", c2=c2)
    assert cfg["theta_prime"] == Fraction(1, 2) / (3 * cfg["rounds"] * cfg["M"])
    assert cfg["M"] > 10 ** 11  # step orderings kept, not only the 64 Morton orders
    for past in (c2 + 1, 10 ** 7):
        with pytest.raises(ValueError, match="smallest supported sigma"):
            hd_config(100, 2, 0.5, "1/2", c2=past)


def test_hd_minimal_contains_all_pairs_edge():
    pts = np.array([[0.0, 0.0], [1.0, 0.1], [0.3, 0.9], [0.7, 0.4]])
    g = build_hd_spanner(pts, 0.5, "1/2", seed=0, sub_c=8, sub_mode="experimental")
    assert (0, 1) in edge_set(g)  # degenerate regime: clique


def test_hd_degenerate_regime_and_theta_prime():
    pts = jittered_grid(8, 8, seed=7)
    g = build_hd_spanner(pts, 0.5, "1/2", variant="improved", seed=1,
                         sub_c=8, sub_mode="experimental")
    meta = g.meta
    assert meta["regime"] == "g1d_clique_union"
    cfg = hd_config(64, 2, 0.5, Fraction(1, 2), "improved", 16)
    assert meta["theta_prime"] == str(cfg["theta_prime"])
    assert meta["M"] == cfg["M"]
    assert g.edge_count == 64 * 63 // 2
    g.validate()


def test_hd_stretch_no_failures():
    pts = jittered_grid(8, 8, seed=8)
    g = build_hd_spanner(pts, 0.5, "1/2", seed=2, sub_c=8, sub_mode="experimental")
    assert all_pairs_stretch(g) <= 1.5 * (1 + 1e-9)


def test_union_reconstruction_matches_builder_fast_path():
    # in the degenerate regime every ordering contributes the full rank
    # clique, so the explicit union must equal the fast-path clique
    pts = jittered_grid(4, 5, seed=9)
    g = build_hd_spanner(pts, 0.5, "1/2", seed=3, sub_c=8, sub_mode="experimental")
    n = g.n
    normed, _, _ = normalize_unit(pts, margin=g.meta["norm_margin"])
    family = build_ordering_family(2, g.meta["sigma"])
    sink = EdgeSink(n)
    union_over_orderings(normed, family.orderings[:3], Fraction(g.meta["theta_prime"]),
                         g.meta["sub_c"], g.meta["sub_mode"], g.meta["seed"], sink)
    assert edge_set(WeightedGraph.from_pairs(n, *sink.extract())) == edge_set(g)


def test_union_layered_path_is_exact_union():
    # drive the non-degenerate union explicitly with a hand-built family
    rng = substream(10, "hd-layered")
    n = 64
    normed = rng.random((n, 2)) * 0.75 + 0.125
    family = build_ordering_family(2, 0.5)
    orderings = family.orderings[:4]
    theta_prime = Fraction(7, 10)
    sink = EdgeSink(n)
    union_over_orderings(normed, orderings, theta_prime, 4, "experimental", 11, sink)
    got = edge_set(WeightedGraph.from_pairs(n, *sink.extract()))
    expect = set()
    from relspan.streams import subseed
    for o in orderings:
        perm = sort_by_ordering(o, normed)
        g1 = build_G_theta(n, theta_prime, c=4, seed=subseed(11, "ordering", o.id),
                           mode="experimental")
        assert g1.meta["regime"] == "layered"
        for a, b in zip(perm[g1.u].tolist(), perm[g1.v].tolist()):
            expect.add((min(a, b), max(a, b)))
    assert got == expect


def pin_grid(shape, seed):
    axes = np.meshgrid(*[np.arange(k, dtype=np.float64) for k in shape], indexing="ij")
    pts = np.stack([a.ravel() for a in axes], axis=1)
    return pts + substream(seed, "pin-grid").uniform(-0.2, 0.2, size=pts.shape)


def int64_sha256(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.int64).tobytes())
    return h.hexdigest()


# recorded with the Python-int keys of d >= 3 and the separate d = 1, 2 paths
UNION_PINS = {
    (8, 8): (0.25, (0, 21, 32, 577, 1121), 1971,
             "358658c557220a983dbf5faa51980665940a4b47359b224af91525ec4ffe6708",
             "1e4d960b4e46ae735c30d44ad2b391dc21adbcd7568281fe7864e5fca773ca4d"),
    (4, 4, 4): (0.5, (0, 5, 8, 2483, 4958), 1959,
                "fe6ea94e84cb5a7a7d54c7b1cbe05559084aba66447c9fd08a0ff1aee97d21ea",
                "ec3605724e579b9f7e4ece3b86d0b6794686d1c23cc242cbda72bf83409e10d8"),
}


@pytest.mark.parametrize("shape", sorted(UNION_PINS))
def test_union_over_orderings_pinned(shape):
    """Morton orderings (one reflected in d = 2) and step orderings of the
    coarsest, a middle and the finest scale, on sparse rank graphs."""
    sigma, ids, edges, union_sha, perm_sha = UNION_PINS[shape]
    normed, _, _ = normalize_unit(pin_grid(shape, 1), margin=NORM_MARGIN)
    orderings = [build_ordering_family(len(shape), sigma).orderings[i] for i in ids]
    assert {o.kind for o in orderings} == {"morton", "step"}
    n = normed.shape[0]
    sink = EdgeSink(n)
    union_over_orderings(normed, orderings, Fraction(9, 10), 1, "experimental", 11, sink, 1)
    g = WeightedGraph.from_pairs(n, *sink.extract())
    assert g.edge_count == edges
    assert int64_sha256(g.u, g.v) == union_sha
    assert int64_sha256(*[sort_by_ordering(o, normed) for o in orderings]) == perm_sha


def test_hd_rank_permutations_pinned():
    # the certification context's per-ordering rank permutations
    g = build_hd_spanner(pin_grid((8, 8), 2), 0.99, "1/2", seed=1, sub_c=8,
                         sub_mode="experimental")
    perms = Certifier(g).rank_permutations
    assert len(perms) == g.meta["M"] == 17880
    assert int64_sha256(*perms) == "46054d6b85685c3a0413149cce9544238049394828aaf5fe7f85bb43a764378a"
    # d = 3 through a hand-made graph, to keep the family at M = 4959
    pts = pin_grid((4, 4, 4), 3)
    g3 = WeightedGraph.from_pairs(64, [0], [1], positions=pts, meta={
        "d": 3, "sigma": 0.5, "norm_margin": NORM_MARGIN})
    perms = Certifier(g3).rank_permutations
    assert len(perms) == 4959
    assert int64_sha256(*perms) == "f3aa2bcd3d746c5ea829c848f056c4df4616ca0dbfee22150285717ca13df7b8"


def test_hd_requires_enough_points():
    with pytest.raises(ValueError):
        build_hd_spanner(np.array([[0.5, 0.5]]), 0.5, "1/2")


def test_hd_two_points_single_edge():
    g = build_hd_spanner(np.array([[0.0, 0.0], [1.0, 1.0]]), 0.5, "1/2",
                         sub_c=8, sub_mode="experimental")
    assert edge_set(g) == {(0, 1)}


def test_climb_up_reach_fraction():
    # survivors outside the cell shadow can reach, within stretch two of any
    # ancestor cell's diameter, at least a 3*xi fraction of that cell
    from relspan.quadtree import build_quadtree, normalize_unit
    from relspan.shadow import shadow_quadtree
    theta = Fraction(1, 4)
    xi = theta / 8
    gamma = 1 - theta / 2
    pts = jittered_grid(8, 8, seed=20)
    g = build_bounded_spread_spanner(pts, 0.5, theta, seed=21)
    normed, scale, _ = normalize_unit(pts, margin=g.meta["norm_margin"])
    tree = build_quadtree(normed, already_normalized=True)
    rng = substream(22, "climb")
    for trial in range(3):
        bad = rng.choice(64, size=6, replace=False)
        shadowed = set(shadow_quadtree(tree, bad, gamma).members.tolist())
        alive = [v for v in range(64) if v not in set(bad.tolist())]
        dist = shortest_path_matrix(g, bad, alive)
        row_of = {v: i for i, v in enumerate(alive)}
        bad_set = set(bad.tolist())
        for node in range(tree.pad):
            ids = tree.point_ids[tree.point_ptr[node]:tree.point_ptr[node + 1]]
            if len(ids) < 2:
                continue
            reach_limit = 2.0 * tree.diameter[node] / scale  # original units
            for p in ids.tolist():
                if p in bad_set or p in shadowed:
                    continue
                reachable = sum(
                    1 for q in ids.tolist()
                    if q not in bad_set and dist[row_of[p]][q] <= reach_limit + 1e-9)
                assert reachable >= 3 * xi * len(ids), (trial, node, p)
