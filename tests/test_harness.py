from fractions import Fraction

import numpy as np
import pytest

from relspan.graph_core import WeightedGraph
from relspan.harness import (AttackSpec, Certifier, certify, generate_attack, loss_curve,
                             write_loss_csv)
from relspan.spanner1d import build_G_theta, build_H
from relspan.spanner_euclidean import build_bounded_spread_spanner, build_hd_spanner
from relspan.streams import substream

from test_spanner_euclidean import jittered_grid


@pytest.fixture(scope="module")
def h_graph():
    return build_H(256, seed=1)


@pytest.fixture(scope="module")
def bs_graph():
    return build_bounded_spread_spanner(jittered_grid(8, 8, seed=2), 0.5, "1/4", seed=3)


def test_prefix_attack(h_graph):
    spec = AttackSpec("prefix", 5)
    assert generate_attack(spec, h_graph).tolist() == [0, 1, 2, 3, 4]


def test_interval_attack_reproducible(h_graph):
    spec = AttackSpec("interval", 8, seed=4)
    a = generate_attack(spec, h_graph)
    b = generate_attack(spec, h_graph)
    assert a.tolist() == b.tolist()
    assert a.tolist() == list(range(a[0], a[0] + 8))


def test_random_attack_size_and_range(h_graph):
    bad = generate_attack(AttackSpec("random", 32, seed=5), h_graph)
    assert bad.size == 32
    assert len(set(bad.tolist())) == 32
    assert bad.min() >= 0 and bad.max() < 256


def test_ball_attack_needs_positions(h_graph, bs_graph):
    with pytest.raises(ValueError):
        generate_attack(AttackSpec("ball", 4, seed=1), h_graph)
    bad = generate_attack(AttackSpec("ball", 6, seed=1), bs_graph)
    assert bad.size == 6


def test_attack_k_out_of_range(h_graph):
    with pytest.raises(ValueError):
        generate_attack(AttackSpec("random", 300, seed=0), h_graph)


@pytest.mark.parametrize("kind", ["random", "prefix", "interval", "ball", "greedy-shadow"])
@pytest.mark.parametrize("k", [-3, -1, 65])
def test_attack_rejects_k_outside_0_to_n(bs_graph, kind, k):
    with pytest.raises(ValueError, match=r"k must be in \[0, 64\]"):
        generate_attack(AttackSpec(kind, k, seed=0), bs_graph)


# greedy-shadow ids recorded from the per-candidate loop the one-pass scoring
# replaced, so the attack and its test oracle cannot drift together
GREEDY_GOLDEN_H128 = [32]
GREEDY_GOLDEN_GRID = {4: [3, 4, 7, 17],
                      8: [3, 4, 7, 17, 22, 24, 29, 32],
                      48: [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 17, 20, 22, 24, 29, 32,
                           33, 34, 36, 38, 39, 41]}


def test_greedy_ids_golden_on_the_line():
    g = build_H(128, seed=6)
    for seed in range(5):
        bad = generate_attack(AttackSpec("greedy-shadow", 8, seed=seed), g)
        assert bad.tolist() == GREEDY_GOLDEN_H128


def test_greedy_ids_golden_on_the_quadtree():
    # at the builder's gamma = 7/8 every greedy step takes the lowest free id;
    # at 1/2 two-point cells with one failure join the shadow
    g = build_bounded_spread_spanner(jittered_grid(6, 8, seed=20), 0.5, "1/4", seed=3)
    g.meta["gamma"] = "1/2"
    for k, ids in GREEDY_GOLDEN_GRID.items():
        assert generate_attack(AttackSpec("greedy-shadow", k), g).tolist() == ids


def test_greedy_beats_random_usually():
    g = build_H(128, seed=6)
    alpha = g.meta["cert_alpha"]
    from relspan.shadow import shadow_1d
    wins = 0
    trials = 20
    for t in range(trials):
        greedy = generate_attack(AttackSpec("greedy-shadow", 8, seed=t), g)
        random_ = generate_attack(AttackSpec("random", 8, seed=t), g)
        s_g = shadow_1d(128, greedy, alpha).size
        s_r = shadow_1d(128, random_, alpha).size
        wins += s_g >= s_r
    assert wins / trials >= 0.9


def test_certify_empty_b_is_pure_audit(h_graph, bs_graph):
    for g in (h_graph, bs_graph):
        rep = certify(g, [])
        assert rep.passed
        assert rep.k == 0
        assert rep.bplus_size == 0
        assert rep.loss_certificate == 0


def test_certify_h(h_graph):
    # k = 1 keeps the 1/96-shadow well below n, so the pair audit has teeth
    rep = certify(h_graph, [100])
    assert rep.passed
    assert 0 < rep.bplus_size <= 200
    assert rep.bplus_size < 256
    assert rep.max_stretch == pytest.approx(1.0)
    assert rep.max_hops is not None and rep.max_hops >= 1
    # larger attacks shadow the whole small line: bound still certified
    rng = substream(7, "cert-h")
    for k in (4, 16):
        bad = rng.choice(256, size=k, replace=False)
        rep = certify(h_graph, bad)
        assert rep.passed
        assert rep.bplus_size <= 200 * k


def test_certify_g_theta_regimes():
    g = build_G_theta(256, "1/2", c=8, mode="experimental", seed=8)
    rep = certify(g, substream(9, "a").choice(256, size=12, replace=False))
    assert rep.passed
    assert rep.max_hops is not None and rep.max_hops <= g.meta["hop_cap"]
    g_deg = build_G_theta(64, "1/2", c=512, mode="faithful", seed=9)
    rep2 = certify(g_deg, [5, 6, 7])
    assert rep2.passed
    assert rep2.regime == "g0_clique"


def test_certify_bounded_spread(bs_graph):
    rng = substream(10, "cert-bs")
    theta = Fraction(1, 4)
    for k in (4, 8):
        bad = rng.choice(64, size=k, replace=False)
        rep = certify(bs_graph, bad)
        assert rep.bound_ok
        assert rep.bplus_size <= (1 + theta) * k
        assert rep.passed, rep.failing_sample


def test_certify_hd():
    pts = jittered_grid(8, 8, seed=11)
    g = build_hd_spanner(pts, 0.5, "1/2", seed=12, sub_c=8, sub_mode="experimental")
    rng = substream(13, "cert-hd")
    for k in (4, 8):
        bad = rng.choice(64, size=k, replace=False)
        rep = certify(g, bad)
        assert rep.passed
        assert rep.bplus_size <= 1.5 * k


def test_certify_rejects_unknown_meta():
    g = WeightedGraph.from_pairs(4, [0, 1, 2], [1, 2, 3], line=True)
    with pytest.raises(ValueError, match="unknown construction"):
        certify(g, [1])


def test_failing_count_is_exact_on_the_line():
    # path 0-1-...-199 cut at 100: all 100 * 99 pairs across the cut fail
    n = 200
    g = WeightedGraph.from_pairs(n, range(n - 1), range(1, n), line=True,
                                 meta={"kind": "g_theta", "cert_alpha": "7/8",
                                       "bplus_factor": "3/2"})
    rep = certify(g, [100])
    assert rep.bplus_size == 1 and not rep.passed
    assert rep.failing_outside == 9900
    assert rep.failing_sample == [(0, t) for t in range(101, 117)]
    assert rep.max_hops == 99
    assert rep.loss_greedy == 1
    assert "loss_greedy covers the first 64 of 9900 failing pairs" in rep.notes


@pytest.mark.parametrize("pair_budget", [10 ** 6, 500])
def test_failing_count_is_exact_in_stretch_audit(bs_graph, pair_budget):
    # without edges every audited pair fails, in the all-pairs and the sampled mode
    g = WeightedGraph.from_pairs(bs_graph.n, [], [], positions=bs_graph.positions,
                                 meta=bs_graph.meta)
    rep = certify(g, [], pair_budget=pair_budget)
    assert rep.pair_sampling["mode"] == ("all" if pair_budget > 2016 else "sampled")
    if pair_budget == 500:  # the draws repeat pairs, and each is audited once
        rng = substream(0, "stretch-sample")
        draws = zip(rng.integers(0, 64, size=500).tolist(), rng.integers(0, 64, size=500).tolist())
        distinct = {(min(a, b), max(a, b)) for a, b in draws if a != b}
        assert rep.pair_sampling == {"mode": "sampled", "draws": 500, "pairs": len(distinct),
                                     "seed": 0} and len(distinct) < 490
    assert rep.failing_outside == rep.pairs_checked == rep.pair_sampling["pairs"] > 64
    assert len(rep.failing_sample) == 16
    assert (f"loss_greedy covers the first 64 of {rep.pairs_checked} failing pairs"
            in rep.notes)


def test_failing_pairs_monotone_in_b():
    # nested failure chains never un-fail a surviving pair
    g = build_H(64, xi="1/2", seed=14)  # sparse variant so failures can occur
    from relspan.spanner1d import one_path_coverage
    rng = substream(15, "mono")
    chain = rng.choice(64, size=12, replace=False)
    prev_failing: set = set()
    for cut in (4, 8, 12):
        bad = np.sort(chain[:cut])
        good = np.setdiff1d(np.arange(64), bad)
        failures, count, _ = one_path_coverage(g, bad, good, max_failures=10 ** 6)
        assert count == len(failures)
        failing = {f for f in failures if f[0] not in bad and f[1] not in bad}
        surviving_prev = {f for f in prev_failing
                          if f[0] not in bad and f[1] not in bad}
        assert surviving_prev <= failing
        prev_failing = failing


def test_greedy_cover_below_certificate_loss(h_graph):
    rng = substream(16, "greedy-cert")
    for _ in range(5):
        bad = rng.choice(256, size=10, replace=False)
        rep = certify(h_graph, bad)
        assert rep.greedy_le_certificate
        assert rep.loss_greedy <= rep.loss_certificate


def test_loss_curve_zero_k(h_graph):
    rows = loss_curve(h_graph, "random", [0], trials=2)
    for row in rows:
        assert row["bplus"] == 0
        assert row["ratio"] == 0.0
        assert row["passed"]


def test_loss_curve_csv_roundtrip(tmp_path, h_graph):
    rows = loss_curve(h_graph, "interval", [4, 8], trials=3, seed=1)
    agg = [r for r in rows if r["trial"] == "aggregate"]
    assert len(agg) == 2
    assert all(r["ratio"] <= 200 for r in agg)
    out = tmp_path / "curve.csv"
    write_loss_csv(rows, out)
    text = out.read_text()
    assert text.startswith("k,trial,kind")
    assert "aggregate" in text


def test_stretch_audit_sampled_mode(bs_graph):
    # a tiny pair budget forces the sampled branch; the seed is recorded
    rep = certify(bs_graph, [3, 40], pair_budget=200, seed=99)
    assert rep.pair_sampling["mode"] == "sampled"
    assert rep.pair_sampling["seed"] == 99 and rep.pair_sampling["draws"] == 200
    assert rep.pairs_checked == rep.pair_sampling["pairs"] <= 200
    assert rep.passed


def test_random_k_alias(h_graph):
    a = generate_attack(AttackSpec("random-k", 8, seed=5), h_graph)
    b = generate_attack(AttackSpec("random", 8, seed=5), h_graph)
    assert a.tolist() == b.tolist()


def test_connectivity_certportion():
    from relspan.expanders import build_reliable_connectivity
    g = build_reliable_connectivity(60, "0.4", seed=17)
    rep = certify(g, substream(18, "c").choice(60, size=6, replace=False))
    assert rep.passed
    assert rep.pair_sampling == {"mode": "components"}
    rep0 = certify(g, [])
    assert rep0.passed and rep0.bplus_size == 0


# ---------------------------------------------------------------------------
# the certification context
# ---------------------------------------------------------------------------

@pytest.fixture
def build_counts(monkeypatch):
    """Calls of build_quadtree and build_ordering_family made by the harness."""
    import relspan.harness as harness
    counts = {"build_quadtree": 0, "build_ordering_family": 0}
    for name in counts:
        original = getattr(harness, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(harness, name, counted)
    return counts


def test_one_context_builds_one_quadtree(bs_graph, build_counts):
    spec = AttackSpec("greedy-shadow", 4, seed=1)
    ctx = Certifier(bs_graph)
    bad = ctx.attack(spec)
    reports = [ctx.certify(b).as_dict() | {"runtime_s": 0} for b in (bad, [3, 40], [])]
    assert build_counts["build_quadtree"] == 1
    assert bad.tolist() == generate_attack(spec, bs_graph).tolist()
    assert reports == [certify(bs_graph, b).as_dict() | {"runtime_s": 0}
                       for b in (bad, [3, 40], [])]


def test_loss_curve_builds_one_quadtree(bs_graph, build_counts):
    rows = loss_curve(bs_graph, "greedy-shadow", [4], trials=20)
    assert len(rows) == 21
    assert build_counts["build_quadtree"] == 1


@pytest.mark.parametrize("kind", ["random", "prefix", "interval", "ball"])
def test_plain_attacks_build_nothing(kind, build_counts, bs_graph, h_graph):
    # they need no shadow, so they work on graphs of any kind, even none
    for g in (bs_graph, h_graph, WeightedGraph.from_pairs(5, [0], [1], positions=np.eye(5))):
        if kind == "ball" and g.positions is None:
            continue
        assert generate_attack(AttackSpec(kind, 3, seed=2), g).size == 3
    assert build_counts == {"build_quadtree": 0, "build_ordering_family": 0}


def test_collapsed_rank_shadow_builds_no_family(build_counts):
    pts = jittered_grid(8, 8, seed=11)
    g = build_hd_spanner(pts, 0.5, "1/2", seed=12, sub_c=8, sub_mode="experimental")
    rep = certify(g, generate_attack(AttackSpec("ball", 8, seed=3), g))
    assert "per-ordering shadows collapse to B at this scale" in rep.notes
    assert build_counts == {"build_quadtree": 0, "build_ordering_family": 0}


def test_greedy_needs_a_shadow_certificate():
    g = build_H(64, xi="1/2", seed=1)  # xi too large for the walk certificate
    assert g.meta["cert_alpha"] is None
    with pytest.raises(ValueError, match="no greedy-shadow objective"):
        generate_attack(AttackSpec("greedy-shadow", 2), g)
    with pytest.raises(ValueError, match="carries no shadow certificate"):
        certify(g, [1])
