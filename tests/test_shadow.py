import math
from fractions import Fraction

import numpy as np
import pytest

from relspan.quadtree import build_quadtree
from relspan.shadow import (as_fraction, check_shadow_bounds, cone_count,
                            cone_directions_3d, cone_index, cone_mark_unsafe,
                            shadow_1d, shadow_balls_oracle, shadow_quadtree)
from relspan.streams import substream

from helpers import verify_witness
from oracles import shadow_1d_bruteforce, shadow_1d_witnesses_loop


def test_as_fraction_forms():
    assert as_fraction("1/96") == Fraction(1, 96)
    assert as_fraction("0.25") == Fraction(1, 4)
    assert as_fraction(0.25) == Fraction(1, 4)
    assert as_fraction(Fraction(3, 4)) == Fraction(3, 4)


def test_empty_failure_set():
    assert shadow_1d(16, [], "1/2").members.size == 0


def test_singleton_example():
    # one failure in the middle of four points, alpha = 1/2
    res = shadow_1d(4, [1], "1/2")
    assert res.members.tolist() == [0, 1, 2]


def test_alpha_validation():
    with pytest.raises(ValueError):
        shadow_1d(8, [1], "0")
    with pytest.raises(ValueError):
        shadow_1d(8, [1], "3/2")


def test_failed_points_self_witness():
    res = shadow_1d(32, [3, 17, 30], "1")
    assert {3, 17, 30} <= set(res.members.tolist())


@pytest.mark.parametrize("seed", range(8))
def test_matches_interval_enumeration(seed):
    rng = substream(seed, "shadow-rand")
    n = int(rng.integers(4, 65))
    k = int(rng.integers(0, max(1, n // 2)))
    bad = rng.choice(n, size=k, replace=False)
    num = int(rng.integers(1, 10))
    alpha = Fraction(num, 10)
    for side in ("left", "right", "both"):
        got = set(shadow_1d(n, bad, alpha, side=side).members.tolist())
        want = shadow_1d_bruteforce(n, bad.tolist(), alpha, side=side)
        assert got == want, (n, bad, alpha, side)


def test_fast_path_equals_witness_path():
    rng = substream(42, "shadow-paths")
    for _ in range(20):
        n = int(rng.integers(4, 80))
        bad = rng.choice(n, size=int(rng.integers(1, n // 2 + 1)), replace=False)
        alpha = Fraction(int(rng.integers(1, 16)), 16)
        fast = shadow_1d(n, bad, alpha)
        slow = shadow_1d(n, bad, alpha, witness=True)
        assert fast.members.tolist() == slow.members.tolist()
        assert verify_witness(slow, bad)


def test_witnesses_match_scan_oracle():
    """Members, witness values and witness order equal the Python-int scan,
    on the int64 scores and on the Python-int ones (q (n + 1) >= 2^62)."""
    rng = substream(43, "shadow-witness")
    cases = []
    for _ in range(300):
        n = int(rng.integers(1, 80))
        bad = rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)
        cases.append((n, bad, Fraction(int(rng.integers(1, 17)), 16)))
    for q in (1 << 62, (1 << 62) + 1, 3 << 70):
        for _ in range(20):
            n = int(rng.integers(1, 40))
            bad = rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)
            alpha = Fraction(q * int(rng.integers(1, 17)) // 16 - 1, q)
            assert alpha.denominator * (n + 1) >= 1 << 62
            cases.append((n, bad, alpha))
    for n, bad, alpha in cases:
        for side in ("left", "right", "both"):
            res = shadow_1d(n, bad, alpha, side=side, witness=True)
            want = shadow_1d_witnesses_loop(n, bad.tolist(), alpha, side)
            assert list(res.witnesses.items()) == list(want.items()), (n, bad, alpha, side)
            assert res.members.tolist() == sorted(want), (n, bad, alpha, side)
            assert res.members.tolist() == shadow_1d(n, bad, alpha, side=side).members.tolist()


def test_monotone_in_alpha_and_b():
    rng = substream(7, "shadow-mono")
    n = 64
    bad1 = rng.choice(n, size=6, replace=False)
    bad2 = np.union1d(bad1, rng.choice(n, size=6, replace=False))
    lo, hi = Fraction(1, 4), Fraction(1, 2)
    s_lo = set(shadow_1d(n, bad1, lo).members.tolist())
    s_hi = set(shadow_1d(n, bad1, hi).members.tolist())
    assert s_hi <= s_lo  # weaker threshold catches more
    s_b1 = set(shadow_1d(n, bad1, lo).members.tolist())
    s_b2 = set(shadow_1d(n, bad2, lo).members.tolist())
    assert s_b1 <= s_b2


def test_bound_formulas():
    res = shadow_1d(256, range(0, 256, 16), "1/32")
    report = check_shadow_bounds(res, range(0, 256, 16))
    assert report["general_bound"] == 2 * (1 + 32) * 16
    assert report["general_ok"]
    res2 = shadow_1d(256, [10, 50, 90], "3/4")
    report2 = check_shadow_bounds(res2, [10, 50, 90])
    assert report2["tight_bound"] == pytest.approx(3 / 0.5)
    assert report2["tight_ok"]


def test_bounds_hold_monte_carlo():
    rng = substream(99, "shadow-mc")
    for _ in range(1000):
        n = 256
        k = int(rng.integers(1, 65))
        bad = rng.choice(n, size=k, replace=False)
        num = int(rng.integers(1, 12))
        alpha = Fraction(num, 12)
        res = shadow_1d(n, bad, alpha)
        rep = check_shadow_bounds(res, bad)
        assert rep["general_ok"]
        assert rep.get("tight_ok", True)


# ---------------------------------------------------------------------------
# quadtree shadow
# ---------------------------------------------------------------------------

def _tree(seed=0, n=64):
    rng = substream(seed, "tree-points")
    pts = rng.random((n, 2)) * 0.75 + 0.125
    return build_quadtree(pts), pts


def test_quadtree_shadow_empty():
    tree, _ = _tree()
    assert shadow_quadtree(tree, [], "7/8").members.size == 0


def test_quadtree_single_leaf_gamma_one():
    tree, _ = _tree()
    res = shadow_quadtree(tree, [5], "1")
    assert res.members.tolist() == [5]


def test_quadtree_shadow_contains_b_and_maximal_union():
    tree, _ = _tree(seed=3, n=100)
    rng = substream(4, "qt-bad")
    bad = rng.choice(100, size=20, replace=False)
    res = shadow_quadtree(tree, bad, "3/4")
    members = set(res.members.tolist())
    assert set(bad.tolist()) <= members
    # union over all shadowed nodes equals union over maximal ones
    all_union = set()
    for idx in res.shadowed_nodes:
        all_union |= set(tree.point_ids[tree.point_ptr[idx]:tree.point_ptr[idx + 1]].tolist())
    assert all_union == members


def test_quadtree_shadow_size_bound():
    # gamma = 1 - theta/2 keeps the shadow within (1 + theta)|B|
    theta = Fraction(2, 5)
    gamma = 1 - theta / 2
    tree, _ = _tree(seed=9, n=128)
    rng = substream(10, "qt-mc")
    for _ in range(50):
        k = int(rng.integers(1, 33))
        bad = rng.choice(128, size=k, replace=False)
        res = shadow_quadtree(tree, bad, gamma)
        assert res.size <= (1 + theta) * k


# ---------------------------------------------------------------------------
# ball shadow and cone marking
# ---------------------------------------------------------------------------

def test_ball_shadow_empty_and_self_witness():
    rng = substream(12, "balls")
    pts = rng.random((40, 2))
    assert shadow_balls_oracle(pts, [], "1/2").members.size == 0
    res = shadow_balls_oracle(pts, [7], "1/2")
    assert 7 in res.members.tolist()


def test_cone_family_shapes():
    assert cone_count(2) == 6
    assert cone_count(3) == 32
    with pytest.raises(ValueError):
        cone_count(4)


def test_cone_assignment_covers_and_caps_angle_2d():
    rng = substream(13, "cones2")
    vecs = rng.random((4000, 2)) - 0.5
    idx = cone_index(vecs, 2)
    assert set(idx.tolist()) == set(range(6))
    ang = np.mod(np.arctan2(vecs[:, 1], vecs[:, 0]), 2 * math.pi)
    for c in range(6):
        sel = ang[idx == c]
        if sel.size > 1:
            assert sel.max() - sel.min() < math.pi / 3


def test_cone_angular_diameter_3d_sampled():
    dirs = cone_directions_3d()
    rng = substream(14, "cones3")
    vecs = rng.normal(size=(20000, 3))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    idx = cone_index(vecs, 3)
    worst = 0.0
    for c in range(dirs.shape[0]):
        sel = vecs[idx == c]
        if len(sel) < 2:
            continue
        dots = np.clip(sel @ sel.T, -1.0, 1.0)
        worst = max(worst, float(np.arccos(dots).max()))
    assert worst < math.pi / 3


def test_cone_marking_bound_and_containment():
    rng = substream(15, "cones-mc")
    for alpha in (Fraction(1, 4), Fraction(1, 2)):
        for trial in range(5):
            pts = substream(trial, "cone-pts").random((120, 2))
            bad = substream(trial, "cone-bad").choice(120, size=10, replace=False)
            unsafe = cone_mark_unsafe(pts, bad, alpha)
            assert len(unsafe) <= 10 * (1 + 6 * math.ceil(1 / alpha))
            oracle = shadow_balls_oracle(pts, bad, alpha)
            assert set(oracle.members.tolist()) <= set(unsafe.tolist())
            assert set(bad.tolist()) <= set(unsafe.tolist())


def test_cone_marking_empty_b():
    pts = substream(17, "cones-empty").random((20, 2))
    assert cone_mark_unsafe(pts, [], "1/2").size == 0


def test_cone_marking_rejects_high_dimension():
    rng = substream(16, "cones-d4")
    pts = rng.random((10, 4))
    with pytest.raises(ValueError):
        cone_mark_unsafe(pts, [0], "1/2")


def test_ball_oracle_any_dimension():
    # the exact oracle has no dimension restriction
    pts = substream(18, "balls-d4").random((30, 4))
    res = shadow_balls_oracle(pts, [2, 9], "1/2")
    assert {2, 9} <= set(res.members.tolist())
