from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relspan.graph_core import pow2_at_least
from relspan.shadow import shadow_1d
from relspan.spanner1d import (build_G_theta, build_H, g_theta_crossover, one_path_coverage,
                               shift_start, shifted_interval_params)
from relspan.streams import substream

from helpers import edge_set, graph_sha256, h_level_budget
from oracles import build_G_theta_oracle, build_H_oracle, find_exact_path, monotone_reach_1d


def test_pow2():
    assert pow2_at_least(1) == 1
    assert pow2_at_least(2) == 2
    assert pow2_at_least(3) == 4
    assert pow2_at_least(Fraction(9, 2)) == 8


@dataclass
class BlockTree:
    """The full binary tree of blocks over [0, pow2(n)), the block structure
    build_H lays its expanders along.

    Level i partitions the padded line into consecutive blocks of size 2^i;
    a block's parent is the union of it and its sibling.
    """

    n_padded: int

    def __post_init__(self):
        if self.n_padded < 1 or self.n_padded & (self.n_padded - 1):
            raise ValueError("padded size must be a power of two")

    @property
    def height(self) -> int:
        return self.n_padded.bit_length() - 1

    def blocks_at_level(self, level: int) -> list[tuple[int, int]]:
        size = 1 << level
        return [(k * size, (k + 1) * size - 1)
                for k in range(self.n_padded >> level)]

    def block_of(self, v: int, level: int) -> tuple[int, int]:
        idx = v >> level
        return (idx << level, ((idx + 1) << level) - 1)


def test_block_tree_invariants():
    tree = BlockTree(32)
    assert tree.height == 5
    for lev in range(tree.height + 1):
        blocks = tree.blocks_at_level(lev)
        # disjoint, consecutive, covering
        assert blocks[0][0] == 0 and blocks[-1][1] == 31
        for (a0, a1), (b0, b1) in zip(blocks, blocks[1:]):
            assert b0 == a1 + 1
        if lev:
            children = tree.blocks_at_level(lev - 1)
            for i, (lo, hi) in enumerate(blocks):
                assert children[2 * i] == (lo, (lo + hi) // 2)
                assert children[2 * i + 1] == ((lo + hi) // 2 + 1, hi)
    assert tree.block_of(13, 3) == (8, 15)
    with pytest.raises(ValueError):
        BlockTree(24)


# ---------------------------------------------------------------------------
# canonical walk
# ---------------------------------------------------------------------------

@dataclass
class CanonicalWalk:
    """Ascending and descending block sequences between two leaves.

    Blocks are inclusive id intervals (lo, hi).  Consecutive ascent blocks
    are same-level neighbors or the parent of the previous one; the walk ends
    with the two tops being same-level neighbors.
    """

    ascent: list[tuple[int, int]]
    descent: list[tuple[int, int]]


def canonical_walk(n: int, i: int, j: int) -> CanonicalWalk:
    """Walk the block tree from leaf i up, across, and down to leaf j: the
    route build_H's reliability argument follows.

    Rules, applied in order each iteration: stop when the active blocks are
    neighbors; advance a right-child left block to its next neighbor; retreat
    a left-child right block to its previous neighbor; otherwise ascend both.
    """
    if i >= j:
        raise ValueError("require i < j")
    tree = BlockTree(pow2_at_least(n))
    if not (0 <= i and j < tree.n_padded):
        raise ValueError("leaves out of range")
    lev = 0
    bi, bj = i, j
    ascent = [tree.block_of(i, 0)]
    descent = [tree.block_of(j, 0)]
    while bj != bi + 1:
        if bi & 1:  # right child: step to the next block
            bi += 1
            ascent.append(tree.block_of(bi << lev, lev))
        elif not (bj & 1):  # left child: step to the previous block
            bj -= 1
            descent.append(tree.block_of(bj << lev, lev))
        else:  # ascend
            lev += 1
            bi >>= 1
            bj >>= 1
            ascent.append(tree.block_of(bi << lev, lev))
            descent.append(tree.block_of(bj << lev, lev))
    descent.reverse()
    return CanonicalWalk(ascent, descent)


def test_walk_adjacent_leaves():
    w = canonical_walk(8, 2, 3)
    assert w.ascent == [(2, 2)]
    assert w.descent == [(3, 3)]


def test_walk_traced_example():
    # leaves 1 and 6 of the 8-leaf tree
    w = canonical_walk(8, 1, 6)
    assert w.ascent == [(1, 1), (2, 2), (2, 3)]
    assert w.descent == [(4, 5), (5, 5), (6, 6)]


def test_walk_rejects_bad_order():
    with pytest.raises(ValueError):
        canonical_walk(8, 5, 5)
    with pytest.raises(ValueError):
        canonical_walk(8, 6, 2)


def _is_parent(child, parent):
    return parent[0] <= child[0] and child[1] <= parent[1] \
        and (parent[1] - parent[0] + 1) == 2 * (child[1] - child[0] + 1)


def _is_neighbor(a, b):
    return (a[1] - a[0]) == (b[1] - b[0]) and b[0] == a[1] + 1


def test_walk_properties_exhaustive():
    n = 32
    for i in range(n):
        for j in range(i + 1, n):
            w = canonical_walk(n, i, j)
            assert w.ascent[0] == (i, i)
            assert w.descent[-1] == (j, j)
            for a, b in zip(w.ascent, w.ascent[1:]):
                assert _is_neighbor(a, b) or _is_parent(a, b)
            for a, b in zip(w.descent, w.descent[1:]):
                assert _is_neighbor(a, b) or _is_parent(b, a)
            top_a, top_d = w.ascent[-1], w.descent[0]
            assert _is_neighbor(top_a, top_d)


# ---------------------------------------------------------------------------
# the block-tree construction
# ---------------------------------------------------------------------------

def test_h_minimal():
    g = build_H(2, seed=0)
    assert edge_set(g) == {(0, 1)}


def test_h_contains_path_and_budget():
    g = build_H(64, seed=1)
    edges = edge_set(g)
    for v in range(63):
        assert (v, v + 1) in edges
    assert g.edge_count >= 63
    assert g.edge_count <= h_level_budget(64)
    g.validate()


def test_h_restriction_invariant():
    # building at n equals building at pow2(n) and keeping ids < n
    full = build_H(32, seed=7)
    cut = build_H(24, seed=7)
    expect = {(u, v) for (u, v) in edge_set(full) if v < 24}
    assert edge_set(cut) == expect


def test_h_every_block_pair_linked():
    g = build_H(64, xi="1/2", seed=3)  # sparse constant, sampled at upper levels
    edges = edge_set(g)
    n_padded = 64
    for lev in range(6):
        size = 1 << lev
        for k in range((n_padded >> lev) - 1):
            a = set(range(k * size, (k + 1) * size))
            b = set(range((k + 1) * size, (k + 2) * size))
            assert any((u in a and v in b) or (u in b and v in a)
                       for u, v in edges), (lev, k)


def test_h_sampled_determinism():
    a = build_H(128, xi="1/2", seed=5)
    b = build_H(128, xi="1/2", seed=5)
    assert edge_set(a) == edge_set(b)


def test_h_reliability_smoke():
    g = build_H(128, seed=11)
    alpha = Fraction(g.meta["cert_alpha"])
    rng = substream(12, "h-attack")
    for _ in range(5):
        bad = rng.choice(128, size=8, replace=False)
        shadowed = shadow_1d(128, bad, alpha).members
        good = np.setdiff1d(np.arange(128), np.union1d(bad, shadowed))
        failures, failing, _ = one_path_coverage(g, bad, good)
        assert failing == 0, failures[:5]


# ---------------------------------------------------------------------------
# the shifted-interval construction
# ---------------------------------------------------------------------------

def test_shift_values_match_formula():
    # resolution 3 with N = 4: starts at -7 then every 2 (1-based formula
    # gives -7, -5 ... our 0-based starts are one lower)
    N = 4
    assert shift_start(3, 1, N) == -8
    assert shift_start(3, 2, N) == -6
    assert shift_start(3, 2, N) - shift_start(3, 1, N) == (1 << 3) // N


def test_layout_block_count():
    # params with c=1, theta=1/2: N = pow2(4) = 4
    N, xi = shifted_interval_params(Fraction(1, 2), c=1)
    assert N == 4
    assert xi == Fraction(1, 128)
    # resolution i=3 at n=64: intervals of length 8, 9 intervals per shift
    n, i = 64, 3
    intervals_per_shift = n // (1 << i) + 1
    assert intervals_per_shift == 9
    # each interval spans exactly 2^i ids before clipping
    for j in range(1, N + 1):
        s0 = shift_start(i, j, N)
        for k in range(intervals_per_shift):
            assert (s0 + (k + 1) * (1 << i)) - (s0 + k * (1 << i)) == 8


def test_g_theta_validation():
    with pytest.raises(ValueError):
        build_G_theta(64, "1/2", c=8, mode="faithful")
    with pytest.raises(ValueError):
        build_G_theta(64, "0", c=8, mode="experimental")


def test_g_theta_degenerate_regime_flagged():
    g = build_G_theta(32, "1/2", c=512, mode="faithful", seed=0)
    assert g.meta["regime"] == "g0_clique"
    assert g.edge_count == 32 * 31 // 2
    assert g_theta_crossover("1/2", 512) == 3 * 2048 + 2


def test_g_theta_layered_build():
    g = build_G_theta(256, "0.7", c=4, mode="experimental", seed=2)
    assert g.meta["regime"] == "layered"
    assert g.meta["N"] == 16
    g.validate()
    # G0 band present
    edges = edge_set(g)
    for v in range(200):
        assert (v, v + 1) in edges


def test_g_theta_reliability_and_hops_smoke():
    theta = Fraction(1, 2)
    g = build_G_theta(256, theta, c=8, mode="experimental", seed=4)
    alpha = 1 - theta / 4
    hop_cap = g.meta["hop_cap"]
    rng = substream(5, "gt-attack")
    for _ in range(5):
        bad = rng.choice(256, size=16, replace=False)
        shadowed = shadow_1d(256, bad, alpha).members
        good = np.setdiff1d(np.arange(256), np.union1d(bad, shadowed))
        failures, failing, max_hops = one_path_coverage(g, bad, good, hop_cap)
        assert failing == 0, failures[:5]
        assert max_hops <= hop_cap


# ---------------------------------------------------------------------------
# block emission against the one-block-at-a-time oracles
# ---------------------------------------------------------------------------

@settings(max_examples=150)
@given(n=st.integers(2, 300),
       theta=st.sampled_from([Fraction(1, 2), Fraction(1, 4), Fraction(3, 4)]),
       mode_c=st.sampled_from([("faithful", 512), ("experimental", 1), ("experimental", 2),
                               ("experimental", 8)]),
       override=st.sampled_from([None, 1, 2]), seed=st.integers(0, 3))
def test_g_theta_matches_per_block_oracle(n, theta, mode_c, override, seed):
    mode, c = mode_c
    g = build_G_theta(n, theta, c=c, seed=seed, mode=mode, degree_constant_override=override)
    u, v, meta = build_G_theta_oracle(n, theta, c, seed, mode, override)
    assert g.u.tolist() == u and g.v.tolist() == v
    assert g.meta == dict(meta, line=True)


@settings(max_examples=80)
@given(n=st.integers(2, 300),
       xi=st.sampled_from([Fraction(1, 16), Fraction(1, 4), Fraction(1, 2)]),
       override=st.sampled_from([None, 1, 2]), seed=st.integers(0, 3))
def test_h_matches_per_block_oracle(n, xi, override, seed):
    g = build_H(n, xi=xi, seed=seed, degree_constant_override=override)
    u, v, meta = build_H_oracle(n, xi, seed, override)
    assert g.u.tolist() == u and g.v.tolist() == v
    assert g.meta == dict(meta, line=True)


# sha256 of (edges, meta) pinned from the per-block emission: the `line`
# benchmark build and a block tree sampled above its 4 x 4 blocks
@pytest.mark.parametrize("build,edges,edges_sha,meta_sha", [
    (lambda: build_G_theta(1024, Fraction(1, 2), c=8, seed=1, mode="experimental",
                           degree_constant_override=1), 296876,
     "0c2cab27a3361c56bb3c8b5e9eae9ad01a81e75e286c8ff1e37d209258c4227b",
     "4378dd1218a0616cd66cfb87a6e45c836b23f78e9cb002b2d7a54a074e716d16"),
    (lambda: build_H(512, seed=1, degree_constant_override=2), 18346,
     "07dfe53c387327de02820216c99ee83258750c34496f43ab0f6cdd24667996fd",
     "e7a2deb8eada3da68b2697eb2deb52359a12d2a3ec3ad982441bc4220507a7ae"),
], ids=["line", "h-sampled"])
def test_1d_golden_hashes(build, edges, edges_sha, meta_sha):
    g = build()
    assert g.u.size == edges
    assert graph_sha256(g) == (edges_sha, meta_sha)


# ---------------------------------------------------------------------------
# exact paths
# ---------------------------------------------------------------------------

def test_find_path_adjacent_edge():
    g = build_H(16, seed=0)
    res = find_exact_path(g, [], 4, 5)
    assert res.found and res.hops == 1 and res.path == [4, 5]
    assert res.length == 1.0


def test_find_path_monotone_telescopes():
    g = build_G_theta(128, "0.5", c=8, mode="experimental", seed=6)
    rng = substream(7, "fp")
    for _ in range(20):
        s, t = sorted(rng.choice(128, size=2, replace=False).tolist())
        bad = [v for v in rng.choice(128, size=10, replace=False).tolist()
               if v not in (s, t)]
        res = find_exact_path(g, bad, s, t)
        if res.found:
            assert res.length == pytest.approx(t - s, rel=1e-9)
            assert all(a < b for a, b in zip(res.path, res.path[1:]))
            assert not set(res.path) & set(bad)


def test_find_path_absent_is_value():
    from relspan.graph_core import WeightedGraph
    g = WeightedGraph.from_pairs(8, range(7), range(1, 8), line=True)
    res = find_exact_path(g, [3], 0, 7)
    assert not res.found
    assert res.path == []


def test_find_path_validates_endpoints():
    g = build_H(8, seed=0)
    with pytest.raises(ValueError):
        find_exact_path(g, [], 5, 3)
    with pytest.raises(ValueError):
        find_exact_path(g, [3], 3, 5)
    for s, t in ((0, 100), (0, 8), (-1, 5)):
        with pytest.raises(ValueError, match="out of range"):
            find_exact_path(g, [], s, t)


def test_monotone_reach_consistency_with_paths():
    g = build_H(64, seed=13)
    bad = [10, 11, 12]
    reach = set(monotone_reach_1d(g, bad, 5, "right").tolist())
    for t in (20, 40, 63):
        res = find_exact_path(g, bad, 5, t)
        assert res.found == (t in reach)
