"""Differential property tests of the one-pass greedy-shadow scoring.

shadow_1d_candidate_sizes and shadow_quadtree_candidate_sizes against one
full shadow recomputation per candidate, shadow_quadtree against the
bottom-up walk, and the greedy-shadow attack against the per-candidate loop.
Thresholds include 1 and ones whose denominator, 2^61, takes the Python-int
path of the exact comparisons.
"""

from fractions import Fraction

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from relspan.graph_core import PointSet, WeightedGraph
from relspan.harness import AttackSpec, generate_attack
from relspan.quadtree import build_quadtree
from relspan.shadow import (shadow_1d, shadow_1d_candidate_sizes, shadow_quadtree,
                            shadow_quadtree_candidate_sizes)

from oracles import (candidate_sizes_bruteforce, greedy_shadow_bruteforce, quadtree_nodes,
                     shadow_1d_bruteforce, shadow_quadtree_walk)

BIG = 2 ** 61
thresholds = (st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(7, 8), Fraction(1, 96),
                               Fraction(1, BIG), Fraction(BIG - 1, BIG)])
              | st.builds(lambda q, p: Fraction(min(p, q), q),
                          st.integers(1, 12), st.integers(1, 12)))


def subsets(n):
    return st.lists(st.integers(0, n - 1), unique=True, max_size=n)


@st.composite
def grid_points(draw, min_n=1, max_n=40):
    """Distinct points on a random grid, inside [1/8, 7/8)^d for d = 1..3;
    coarse grids give long chains of shared cells."""
    d = draw(st.integers(1, 3))
    side = draw(st.sampled_from([2, 4, 16, 1024]))
    n = min(draw(st.integers(min_n, max_n)), side ** d)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    cells = np.stack(np.unravel_index(rng.choice(side ** d, size=n, replace=False),
                                      (side,) * d), axis=1)
    return (cells + 0.5) / side * 0.75 + 0.125


@given(st.integers(1, 40), thresholds, st.data())
def test_1d_candidate_sizes_match_recomputation(n, alpha, data):
    bad = data.draw(subsets(n))
    got = shadow_1d_candidate_sizes(n, bad, alpha)
    assert got.tolist() == candidate_sizes_bruteforce(
        lambda b: shadow_1d(n, b, alpha).size, n, bad)


@given(grid_points(), thresholds, st.data())
def test_quadtree_candidate_sizes_match_recomputation(pts, gamma, data):
    tree = build_quadtree(pts)
    bad = data.draw(subsets(len(pts)))
    got = shadow_quadtree_candidate_sizes(tree, bad, gamma)
    assert got.tolist() == candidate_sizes_bruteforce(
        lambda b: shadow_quadtree(tree, b, gamma).size, len(pts), bad)


@given(grid_points(), thresholds, st.data())
def test_quadtree_shadow_matches_walk(pts, gamma, data):
    tree = build_quadtree(pts)
    bad = data.draw(subsets(len(pts)))
    res = shadow_quadtree(tree, bad, gamma)
    members, shadowed, maximal = shadow_quadtree_walk(
        quadtree_nodes(pts), bad, gamma)
    assert res.members.dtype == np.int64
    assert res.members.tolist() == members
    assert res.shadowed_nodes == shadowed
    assert res.maximal_nodes == maximal


def attack_sizes(draw, n):
    return draw(st.sampled_from([0, n]) | st.integers(0, n))


@given(st.integers(1, 20), thresholds, st.data())
def test_greedy_on_the_line_matches_per_candidate_loop(n, alpha, data):
    k = attack_sizes(data.draw, n)
    g = WeightedGraph.from_pairs(n, [], [], line=True,
                                 meta={"kind": "g_theta", "cert_alpha": str(alpha)})
    got = generate_attack(AttackSpec("greedy-shadow", k), g).tolist()
    assert got == greedy_shadow_bruteforce(
        lambda b: len(shadow_1d_bruteforce(n, b, alpha)), n, k)


@given(grid_points(min_n=2, max_n=24), thresholds, st.data())
def test_greedy_on_the_quadtree_matches_per_candidate_loop(pts, gamma, data):
    n = len(pts)
    k = attack_sizes(data.draw, n)
    g = WeightedGraph.from_pairs(n, [], [], positions=pts,
                                 meta={"kind": "bounded_spread", "gamma": str(gamma),
                                       "norm_margin": 0.125})
    tree = quadtree_nodes(PointSet(pts).normed)
    got = generate_attack(AttackSpec("greedy-shadow", k), g).tolist()
    assert got == greedy_shadow_bruteforce(
        lambda b: len(shadow_quadtree_walk(tree, b, gamma)[0]), n, k)


def test_1d_candidate_sizes_across_row_blocks():
    # n > 2 * 1024 candidates: three row blocks of the one-pass scoring, with
    # runs of failures at both block ends so that the gains vary there
    n = 2100
    bad = np.union1d(np.r_[1014:1024:2, 2040:2050:2],
                     np.random.default_rng(7).choice(n, size=20, replace=False))
    for alpha in (Fraction(1, 2), Fraction(2, 3)):
        got = shadow_1d_candidate_sizes(n, bad, alpha)
        assert got.tolist() == candidate_sizes_bruteforce(
            lambda b: shadow_1d(n, b, alpha).size, n, bad)
