import math
import re
from fractions import Fraction

import numpy as np
import pytest

from relspan import expanders
from relspan.expanders import (bipartite_degree_constant, bipartite_sample_plans,
                               blocks_into_sink,
                               build_bipartite_expander,
                               build_reliable_connectivity, build_strong_expander,
                               build_verified_bipartite,
                               reliable_connectivity_params,
                               verify_connectivity_sampled, verify_expansion_bruteforce,
                               verify_expansion_sampled, verify_strong_expansion)
from relspan.graph_core import EdgeSink, PointSet, WeightedGraph, at_least, fraction_in
from relspan.harness import certify, loss_curve
from relspan.lso import build_ordering_family, check_lso_property, family_shape
from relspan.quadtree import build_quadtree
from relspan.shadow import (cone_mark_unsafe, shadow_1d, shadow_1d_candidate_sizes,
                            shadow_balls_oracle, shadow_quadtree,
                            shadow_quadtree_candidate_sizes)
from relspan.spanner1d import build_G_theta, build_H
from relspan.spanner_euclidean import build_bounded_spread_spanner, build_hd_spanner
from relspan.streams import substream

from helpers import degrees, edge_set
from oracles import expander_block_oracle, sample_plan_py, shortest_path_length


def test_params_validation():
    # the two helpers every builder, shadow and audit checks its parameters with
    assert fraction_in("1/4", "xi") == Fraction(1, 4)
    assert fraction_in(0.25, "epsilon") == Fraction(1, 4)
    assert fraction_in(1, "alpha", closed=True) == 1
    assert fraction_in("0.4", "theta", hi=Fraction(1, 2)) == Fraction(2, 5)
    for value, kwargs, message in (
            ("0", {}, "xi must be in (0, 1)"),
            (1, {}, "xi must be in (0, 1)"),
            (float("nan"), {}, "xi must be in (0, 1)"),
            (float("inf"), {}, "xi must be in (0, 1)"),
            ("nan", {}, "xi must be in (0, 1)"),
            ("1/0", {}, "xi must be in (0, 1)"),
            ("3/2", {"closed": True}, "xi must be in (0, 1]"),
            ("1/2", {"hi": Fraction(1, 2)}, "xi must be in (0, 1/2)")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            fraction_in(value, "xi", **kwargs)
    assert at_least(np.int64(3), "n", 2) == 3 and type(at_least(np.int64(3), "n", 2)) is int
    for value, message in ((1, "n must be at least 2, got 1"),
                           (2.0, "n must be at least 2, got 2.0"),
                           (float("nan"), "n must be at least 2, got nan")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            at_least(value, "n", 2)


_PTS = substream(31, "contract").random((16, 2))


def _bounded_spread():
    return build_bounded_spread_spanner(_PTS, 0.5, "1/4", seed=1)


# (call, the parameter its ValueError names); each value is out of range
_OUT_OF_RANGE = {
    "bipartite-left": (lambda: build_bipartite_expander(0, 4, "1/2"), "left_size"),
    "bipartite-right": (lambda: build_bipartite_expander(4, -1, "1/2"), "right_size"),
    "bipartite-xi": (lambda: build_bipartite_expander(4, 4, "1"), "xi"),
    "bipartite-xi-nan": (lambda: build_bipartite_expander(4, 4, float("nan")), "xi"),
    "bipartite-override-0": (lambda: build_bipartite_expander(
        4, 4, "1/2", degree_constant_override=0), "degree_constant_override"),
    "bipartite-override-neg": (lambda: build_bipartite_expander(
        4, 4, "1/2", degree_constant_override=-1), "degree_constant_override"),
    "sample-plans-override": (lambda: bipartite_sample_plans(
        [4], [4], Fraction(1, 2), 0), "degree_constant_override"),
    "verified-attempts": (lambda: build_verified_bipartite(4, 4, "1/2", max_attempts=0),
                          "max_attempts"),
    "verified-xi": (lambda: build_verified_bipartite(4, 4, "0"), "xi"),
    "bruteforce-xi": (lambda: verify_expansion_bruteforce(
        build_bipartite_expander(2, 2, "1/2"), ([0, 1], [2, 3]), "1"), "xi"),
    "strong-verifier-beta": (lambda: verify_strong_expansion(
        build_strong_expander(10, 2, "1/2"), 2, "3"), "beta"),
    "connectivity-verifier-theta": (lambda: verify_connectivity_sampled(
        build_reliable_connectivity(10, "2/5"), "3", 5), "theta"),
    "strong-n": (lambda: build_strong_expander(1, 2, "1/2"), "n"),
    "strong-alpha": (lambda: build_strong_expander(10, 1, "1/2"), "alpha"),
    "strong-alpha-fraction": (lambda: build_strong_expander(10, 2.5, "1/2"), "alpha"),
    "strong-beta": (lambda: build_strong_expander(10, 2, "1"), "beta"),
    "strong-override": (lambda: build_strong_expander(
        10, 2, "1/2", degree_constant_override=0), "degree_constant_override"),
    "reliable-theta": (lambda: build_reliable_connectivity(10, "1/2"), "theta"),
    "reliable-override": (lambda: build_reliable_connectivity(
        10, "2/5", degree_constant_override=0), "degree_constant_override"),
    "H-n": (lambda: build_H(1), "n"),
    "H-xi": (lambda: build_H(8, "3/2"), "xi"),
    "H-override": (lambda: build_H(64, "1/2", degree_constant_override=0),
                   "degree_constant_override"),
    "G_theta-n": (lambda: build_G_theta(1, "1/2", c=8, mode="experimental"), "n"),
    "G_theta-theta": (lambda: build_G_theta(64, "1", c=8, mode="experimental"), "theta"),
    "G_theta-mode": (lambda: build_G_theta(64, "1/2", mode="fast"), "mode"),
    "G_theta-faithful-c": (lambda: build_G_theta(64, "1/2", c=8), "c"),
    "G_theta-experimental-c-0": (lambda: build_G_theta(
        64, "1/2", c=0, mode="experimental"), "c"),
    "G_theta-experimental-c-neg": (lambda: build_G_theta(
        64, "1/2", c=-3, mode="experimental"), "c"),
    "G_theta-clique-override": (lambda: build_G_theta(
        64, "1/2", c=8, mode="experimental", degree_constant_override=0),
        "degree_constant_override"),
    "bounded-spread-theta": (lambda: build_bounded_spread_spanner(_PTS, 0.5, "1/2"), "theta"),
    "bounded-spread-eps": (lambda: build_bounded_spread_spanner(_PTS, 1.0, "1/4"), "epsilon"),
    "bounded-spread-eps-inf": (lambda: build_bounded_spread_spanner(
        _PTS, float("inf"), "1/4"), "epsilon"),
    "bounded-spread-override": (lambda: build_bounded_spread_spanner(
        _PTS, 0.5, "1/4", degree_constant_override=0), "degree_constant_override"),
    "hd-theta": (lambda: build_hd_spanner(_PTS, 0.5, "1"), "theta"),
    "hd-eps-nan": (lambda: build_hd_spanner(_PTS, float("nan"), "1/2"), "epsilon"),
    "hd-c2": (lambda: build_hd_spanner(_PTS, 0.5, "1/2", c2=8), "c2"),
    "hd-faithful-sub-c": (lambda: build_hd_spanner(_PTS, 0.5, "1/2", sub_c=8), "sub_c"),
    "hd-experimental-sub-c": (lambda: build_hd_spanner(
        _PTS, 0.5, "1/2", sub_c=0, sub_mode="experimental"), "sub_c"),
    "hd-sub-mode": (lambda: build_hd_spanner(_PTS, 0.5, "1/2", sub_mode="fast"), "sub_mode"),
    "hd-override": (lambda: build_hd_spanner(
        _PTS, 0.5, "1/2", sub_c=8, sub_mode="experimental", degree_constant_override=0),
        "degree_constant_override"),
    "shadow-1d": (lambda: shadow_1d(8, [1], "0"), "alpha"),
    "shadow-1d-scores": (lambda: shadow_1d_candidate_sizes(8, [1], "3/2"), "alpha"),
    "shadow-quadtree": (lambda: shadow_quadtree(build_quadtree(PointSet(_PTS).normed), [1], "0"),
                        "gamma"),
    "shadow-quadtree-scores": (lambda: shadow_quadtree_candidate_sizes(
        build_quadtree(PointSet(_PTS).normed), [1], "2"), "gamma"),
    "shadow-balls": (lambda: shadow_balls_oracle(_PTS, [1], "-1/2"), "alpha"),
    "cone-marking": (lambda: cone_mark_unsafe(_PTS, [1], float("nan")), "alpha"),
    "lso-sigma": (lambda: build_ordering_family(2, 1.0), "sigma"),
    "lso-sigma-nan": (lambda: family_shape(2, float("nan")), "sigma"),
    "lso-samples": (lambda: check_lso_property(
        build_ordering_family(1, 0.5), [0.25], [0.75], sample_count=-1), "sample_count"),
    "certify-pairs": (lambda: certify(_bounded_spread(), [], pair_budget=0), "pair_budget"),
    "loss-curve-trials": (lambda: loss_curve(_bounded_spread(), "random", [1], 0), "trials"),
    "loss-curve-pairs": (lambda: loss_curve(_bounded_spread(), "random", [1], 1, pair_budget=0),
                         "pair_budget"),
}


@pytest.mark.parametrize("case", sorted(_OUT_OF_RANGE))
def test_out_of_range_parameter_raises_naming_it(case):
    call, name = _OUT_OF_RANGE[case]
    with pytest.raises(ValueError, match=f"^{name} must be "):
        call()


def test_degree_constant_formula():
    assert bipartite_degree_constant(Fraction(1, 16)) == 768
    assert bipartite_degree_constant(Fraction(1, 4)) == 48
    assert bipartite_degree_constant(Fraction(1, 2)) == 12


def test_single_vertices_single_edge():
    g = build_bipartite_expander(1, 1, "1/2", seed=0)
    assert edge_set(g) == {(0, 1)}


def block_plan(a: int, b: int, xi: Fraction, c=None) -> dict:
    """The sample plan of one a x b block, as the bipartite builder's meta
    records it."""
    return {key: val if key == "c" else val.tolist()[0]
            for key, val in bipartite_sample_plans([a], [b], xi, c).items()}


def test_sample_plan_example():
    # sides 12+12 at xi = 1/4: c = 48, per-left-vertex draws 96, budget 2304
    plan = block_plan(12, 12, Fraction(1, 4))
    assert build_bipartite_expander(12, 12, "1/4").meta["plan"] == plan
    assert plan["c"] == 48
    assert plan["ell_left"] == 96
    assert plan["budget"] == 2304
    assert plan["saturated"]


@pytest.mark.parametrize("xi,c", [(Fraction(1, 4), None), (Fraction(1, 32), 10),
                                  (Fraction(1, 1 << 25), None), (Fraction(1, 2), 1 << 70)])
def test_sample_plans_match_python_ints(xi, c):
    sides = [(a, b) for a in (1, 2, 5, 16, 33, 1000) for b in (1, 3, 16, 32, 33, 4096)]
    plans = bipartite_sample_plans([a for a, _ in sides], [b for _, b in sides], xi, c)
    for k, (a, b) in enumerate(sides):
        want = sample_plan_py(a, b, xi, c)
        got = {key: plans[key] if key == "c" else plans[key][k] for key in want}
        assert {key: int(val) for key, val in got.items()} == \
            {key: int(val) for key, val in want.items()}
        assert block_plan(a, b, xi, c) == want


def test_saturation_is_not_monotone_in_block_size():
    assert block_plan(16, 33, Fraction(1, 4), 10)["saturated"]
    assert not block_plan(16, 32, Fraction(1, 4), 10)["saturated"]


@pytest.mark.parametrize("batch", [1 << 20, 7])
def test_blocks_into_sink_matches_one_call_per_block(monkeypatch, batch):
    # runs of a permuted id list, blocks of mixed sizes, some sampled at c = 2;
    # a batch of 7 pairs splits most blocks into batches of their own, and
    # the saturated blocks of 16 pairs or more are marked one at a time
    monkeypatch.setattr(expanders, "_BLOCK_BATCH", batch)
    monkeypatch.setattr(expanders, "_BIG_BLOCK", 16)
    rng = substream(5, "runs")
    sizes = rng.integers(1, 12, size=14)
    ptr = np.concatenate([[0], np.cumsum(sizes)])
    ids = rng.permutation(int(ptr[-1])).astype(np.int64)
    left = rng.integers(0, 14, size=40)
    right = rng.integers(0, 14, size=40)
    n = int(ptr[-1])
    for c in (None, 2):
        batched = EdgeSink(n)
        labels = lambda i: ("blk", i)
        total = blocks_into_sink(batched, ids, ptr[left], sizes[left], ptr[right], sizes[right],
                                 Fraction(1, 4), 9, labels, c)
        single, want = np.zeros((n, n), dtype=bool), 0
        for i in range(left.size):
            plan = expander_block_oracle(single, ids[ptr[left[i]]:ptr[left[i] + 1]].tolist(),
                                         ids[ptr[right[i]]:ptr[right[i] + 1]].tolist(),
                                         Fraction(1, 4), 9, labels(i), c)
            want += plan["budget"]
        assert total == want
        assert np.array_equal(batched.mat, single)


def test_draw_limit_fails_before_any_draw(monkeypatch):
    # a layered build whose early blocks draw within the limit and whose
    # later ones exceed it: the limit is checked over every sampled block
    # before the first draw, so a refused build re-keys no stream
    rekeyed = []
    monkeypatch.setattr(expanders, "_MAX_DRAWS", 100)
    monkeypatch.setattr(expanders, "rekey", lambda *args: rekeyed.append(args))
    with pytest.raises(ValueError, match=r"^sampling budget 128 exceeds the draw limit; "):
        build_G_theta(256, Fraction(1, 2), c=8, seed=1, mode="experimental",
                      degree_constant_override=1)
    assert rekeyed == []


def test_half_expansion_exhaustive():
    g = build_bipartite_expander(12, 12, "1/2", seed=1)
    sides = (np.arange(12), np.arange(12, 24))
    res = verify_expansion_bruteforce(g, sides, Fraction(1, 2))
    assert res.passed


def test_bipartiteness_and_budget_cap():
    g = build_bipartite_expander(32, 48, "1/2", seed=3, degree_constant_override=3)
    inside_left = ((g.u < 32) & (g.v < 32)).any()
    inside_right = ((g.u >= 32) & (g.v >= 32)).any()
    assert not inside_left and not inside_right
    plan = g.meta["plan"]
    assert not plan["saturated"]
    assert g.edge_count <= plan["budget"]  # dedup only decreases
    deg = degrees(g)
    assert deg[:32].max() <= 48 and deg[32:].max() <= 32  # within the other side


def test_determinism_same_seed():
    a = build_bipartite_expander(24, 24, "1/2", seed=9, degree_constant_override=2)
    b = build_bipartite_expander(24, 24, "1/2", seed=9, degree_constant_override=2)
    c = build_bipartite_expander(24, 24, "1/2", seed=10, degree_constant_override=2)
    assert edge_set(a) == edge_set(b)
    assert edge_set(a) != edge_set(c)
    assert not a.meta["plan"]["saturated"]


def test_verify_complete_bipartite_passes():
    g = build_bipartite_expander(8, 8, "1/4", seed=0)  # saturates to complete
    sides = (np.arange(8), np.arange(8, 16))
    assert verify_expansion_bruteforce(g, sides, Fraction(1, 4)).passed


def test_verify_matching_fails_with_smallest_subset():
    # perfect matching on 8+8: any 2-subset of L sees only 2 < 6 = (1 - 1/4) * 8
    g = WeightedGraph.from_pairs(16, range(8), range(8, 16))
    sides = (np.arange(8), np.arange(8, 16))
    res = verify_expansion_bruteforce(g, sides, Fraction(1, 4))
    assert not res.passed
    assert len(res.violating_subset) == 2
    assert res.neighborhood_size == 2


def test_verify_monotone_in_xi():
    g = build_bipartite_expander(10, 10, "1/4", seed=4, degree_constant_override=4)
    sides = (np.arange(10), np.arange(10, 20))
    passed_at = [verify_expansion_bruteforce(g, sides, x).passed
                 for x in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))]
    for lo, hi in zip(passed_at, passed_at[1:]):
        if lo:
            assert hi  # larger xi is a weaker target


def test_verify_budget_guard():
    g = build_bipartite_expander(4, 4, "1/2", seed=0)
    with pytest.raises(ValueError, match="enumeration budget"):
        verify_expansion_bruteforce(g, (np.arange(30), np.arange(30, 34)), "1/2")
    # only L is enumerated, so only L counts against the budget
    wide = build_bipartite_expander(2, 30, "1/2", seed=0)
    res = verify_expansion_bruteforce(wide, (np.arange(2), np.arange(2, 32)), "1/2")
    assert (res.passed, res.checked) == (True, 3)


def test_verify_counts_neighbors_across_the_whole_mask():
    # neighborhoods are uint64 masks over R: every one of 64 positions
    # counts, and a 65th vertex is refused rather than dropped
    left, right = np.arange(2), np.arange(2, 66)
    u = np.concatenate([np.zeros(64, dtype=np.int64), np.ones(24, dtype=np.int64)])
    v = np.concatenate([right, right[40:]])
    g = WeightedGraph.from_pairs(66, u, v)
    res = verify_expansion_bruteforce(g, (left, right), "1/2")
    assert (res.passed, res.violating_subset, res.neighborhood_size) == (False, [1], 24)
    full = WeightedGraph.from_pairs(66, np.repeat(left, 64), np.tile(right, 2))
    assert verify_expansion_bruteforce(full, (left, right), "1/2").passed
    wide = WeightedGraph.from_pairs(67, np.repeat(left, 65), np.tile(np.arange(2, 67), 2))
    with pytest.raises(ValueError, match="enumeration budget"):
        verify_expansion_bruteforce(wide, (left, np.arange(2, 67)), "1/2")


@pytest.mark.parametrize("verify", [
    lambda g, sides, xi: verify_expansion_bruteforce(g, sides, xi),
    lambda g, sides, xi: verify_expansion_sampled(g, sides, xi, 5),
], ids=["exhaustive", "sampled"])
@pytest.mark.parametrize("sides,xi,message", [
    ((np.arange(5), np.arange(4, 8)), "1/2", "sides must be nonempty and disjoint"),
    ((np.arange(8), np.arange(0)), "1/2", "sides must be nonempty and disjoint"),
    ((np.arange(4), np.arange(4, 8)), "1", r"xi must be in \(0, 1\)"),
])
def test_bipartite_verifiers_check_their_preconditions(verify, sides, xi, message):
    # the proof that R fails exactly when L does, so that the exhaustive
    # check enumerates L only, is made for these preconditions
    g = build_bipartite_expander(4, 4, "1/2", seed=0)
    with pytest.raises(ValueError, match=message):
        verify(g, sides, xi)


def test_verified_build_reports_attempts():
    g, attempts, res = build_verified_bipartite(12, 12, "1/4", seed=7)
    assert res.passed
    assert 1 <= attempts <= 20
    assert g.meta["attempts"] == attempts


def test_sampled_verification_runs():
    g = build_bipartite_expander(40, 40, "1/2", seed=2, degree_constant_override=6)
    sides = (np.arange(40), np.arange(40, 80))
    res = verify_expansion_sampled(g, sides, Fraction(1, 2), samples=50, seed=1)
    assert res.mode == "sampled"
    assert res.checked >= 50


def test_strong_expander_small_and_property():
    g = build_strong_expander(2, 2, "1/2", seed=0)
    assert edge_set(g) == {(0, 1)}
    g16 = build_strong_expander(16, 2, "1/2", seed=5)
    assert verify_strong_expansion(g16, 2, Fraction(1, 2)).passed
    assert g16.edge_count <= 64 * math.ceil(2 / 0.5) * 16


def test_strong_expander_sampled_path():
    g = build_strong_expander(64, 2, "1/2", seed=8, degree_constant_override=8)
    assert not g.meta["saturated"]
    assert g.edge_count <= 8 * 64  # within the sampling budget
    assert (g.u != g.v).all()  # self-loops removed


def test_reliable_connectivity_params_and_connected():
    alpha, beta = reliable_connectivity_params(Fraction(2, 5))
    assert alpha == 250
    assert beta == Fraction(2, 5) / 250
    g = build_reliable_connectivity(50, "0.4", seed=1)
    dist = shortest_path_length(g, [], 0)
    assert np.isfinite(dist).all()  # B empty: one component of size n
    assert g.edge_count <= g.meta["budget"]  # <= 64 ceil(alpha/beta) n


def test_strong_sampled_verification():
    from relspan.expanders import verify_strong_sampled
    g = build_strong_expander(48, 2, "1/2", seed=20)
    res = verify_strong_sampled(g, 2, Fraction(1, 2), samples=60, seed=1)
    assert res.passed and res.mode == "sampled"
    weak = WeightedGraph.from_pairs(48, range(47), range(1, 48))  # path graph
    res2 = verify_strong_sampled(weak, 2, Fraction(1, 2), samples=60, seed=2)
    assert not res2.passed


def test_connectivity_sampled_verification():
    from relspan.expanders import verify_connectivity_sampled
    g = build_reliable_connectivity(80, "0.4", seed=21)
    res = verify_connectivity_sampled(g, Fraction(2, 5), samples=20, seed=3)
    assert res.passed
    weak = WeightedGraph.from_pairs(80, range(79), range(1, 80))
    weak.meta["theta"] = "2/5"
    res2 = verify_connectivity_sampled(weak, Fraction(2, 5), samples=20, seed=4)
    assert not res2.passed


def test_reliable_connectivity_survives_attacks_smoke():
    theta = Fraction(2, 5)
    g = build_reliable_connectivity(100, theta, seed=2)
    rng = substream(3, "attacks")
    from relspan.harness import certify
    for _ in range(10):
        bad = rng.choice(100, size=10, replace=False)
        rep = certify(g, bad)
        assert rep.passed
