"""Golden pins of certification reports and attack ids.

Each pin is the sha256 of a report's canonical JSON (as_dict() without
runtime_s, keys sorted) or of an attack's id list.  The cases are the
benchmark's line, plane and space graphs at seed 1 under their attacks, the
block-tree graph of test_harness, a reliable-connectivity graph, an
ordering-union graph large enough for the per-ordering shadows to grow and
a bounded-spread graph that misses some edges, so its audit runs Dijkstra.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

import numpy as np
import pytest

from relspan.cli import load_graph, save_graph
from relspan.expanders import build_reliable_connectivity
from relspan.graph_core import PointSet, WeightedGraph
from relspan.harness import AttackSpec, certify, generate_attack
from relspan.lso import family_size
from relspan.spanner1d import build_G_theta, build_H
from relspan.spanner_euclidean import (NORM_MARGIN, build_bounded_spread_spanner,
                                       build_hd_spanner, hd_config)

from test_acceptance import jittered_grid


def derive(seed: int, label: str) -> int:
    """The benchmark's 63-bit seed for one use of its workload seed."""
    digest = hashlib.sha256(f"{seed}/{label}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def bench_points(name: str, shape: tuple) -> np.ndarray:
    """The benchmark's jittered grid (jitter 0.3) at seed 1."""
    rng = np.random.default_rng(derive(1, f"{name}/jitter"))
    cells = np.indices(shape).reshape(len(shape), -1).T.astype(np.float64)
    return cells + rng.uniform(-0.3, 0.3, size=cells.shape)


def bench_graph(name: str):
    seed = derive(1, "build")
    if name == "line":
        return build_G_theta(1024, Fraction(1, 2), c=8, seed=seed, mode="experimental",
                             degree_constant_override=1)
    if name == "plane":
        return build_bounded_spread_spanner(bench_points(name, (12, 16)), 0.5,
                                            Fraction(1, 4), seed=seed)
    return build_hd_spanner(bench_points(name, (16, 16)), 0.99, Fraction(1, 2),
                            variant="improved", seed=seed, sub_c=8, sub_mode="experimental")


BENCH_ATTACKS = {
    "line": (("random", 16), ("interval", 64), ("prefix", 256)),
    "plane": (("random", 32), ("ball", 32), ("greedy-shadow", 4)),
    "space": (("random", 16), ("ball", 16)),
}


def sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def report_sha(rep) -> str:
    out = rep.as_dict()
    del out["runtime_s"]
    return sha(out)


def attack_and_certify(g, spec: AttackSpec) -> tuple[str, str]:
    bad = generate_attack(spec, g)
    return sha(bad.tolist()), report_sha(certify(g, bad, attack=spec))


def bench_pins(g, name: str) -> list[tuple[str, str]]:
    return [attack_and_certify(g, AttackSpec(kind, k, seed=derive(1, f"attack/{kind}")))
            for kind, k in BENCH_ATTACKS[name]]


def wide_hd_graph() -> WeightedGraph:
    """A path on 6000 jittered points of a line, tagged as an ordering-union
    graph with theta = 0.99 and eps = 0.99: theta' = 0.99 / (3 * 5 * 92), so
    an interval of 5576 ranks with one survivor reaches the rank-line
    threshold and the per-ordering shadows do not collapse to B."""
    n = 6000
    pts = (np.arange(n) + np.random.default_rng(5).uniform(-0.3, 0.3, n))[:, None]
    cfg = hd_config(n, 1, 0.99, "0.99")
    ps = PointSet(pts)
    meta = {"kind": "hd", "n": n, "d": 1, "epsilon": 0.99, "theta": "99/100",
            "variant": "improved", "c2": 16, "sigma": cfg["sigma"], "M": cfg["M"],
            "theta_prime": str(cfg["theta_prime"]), "bplus_factor": "199/100",
            "norm_scale": ps.scale, "norm_offset": ps.offset.tolist(), "norm_margin": NORM_MARGIN}
    return WeightedGraph.from_pairs(n, np.arange(n - 1), np.arange(1, n), positions=pts,
                                    meta=meta)


# (ids sha256, report sha256) per attack, recorded before the certification
# context replaced the per-call dispatch
PINS = {
    "line": [
        ("56f2e6ee02edb500bdaf4bd82a635826bec90674e8c0e639fb87aeb2701b5786",
         "658be0de9b0def1cf0e574e8273b1f1bc5d83f56793a6c3185bd5ef5e5da8ab9"),
        ("a09a92cfbe574ab7924093ac98682568868cab3fd3b0b3104b529ebc2b5c69c7",
         "54c03aa240a8bde6e7e2112e3e32409ccfcb846cd66bb13aa76f65b0cca9abe9"),
        ("ce694d5c7d7c923baab12ec1d6802c1c51fd2b080f75601205f07d9129708f35",
         "ef5507fb5393cee17ef4db5a32f3f6d366a9edbc34586478b7246240d3e38cd0"),
    ],
    "plane": [
        ("dab220ba6e124e38c9c596956acc5bb168dd1f7259bb376f842e5b44fa2d1fdb",
         "3bb6b264c1b416de987bd4f70823cb6159459c8995ad38a639fa287452fb4c4a"),
        ("454f8c977abd9190d6b8b2575ebbc9037c96212b0276c647daa512574c9b2d30",
         "53d19efbf649929cedd859d37f7995a023ea41ce1716772a8d01b8c12e8c6fdb"),
        ("02b6deebe10f247a39a1f40c6e045af149df9c96491adce129613e8b30480780",
         "445f3c1fbc291ca4c69d8ce17951ea3d5f5fe41830f1d5e8fca10f6e528ee834"),
    ],
    "space": [
        ("c23c68c1262766eb662d60be6a5c52a29a639de15c6e13e10fbbb06c9b275b4e",
         "88c7bf0fad4a5d3bbc5a376bfb4688d1b047299dd7c14e3dba4ed45b6bea038f"),
        ("c24dc4999211ea4185089e00d3b017e016b87dbe6aa00868517a16dbb344173f",
         "b7f419268c09723cabe7e9a5640f6ed102342c107fef57e31c6017dc3b35e21c"),
    ],
}
H_PINS = [
    ("af1c4624612caefd970f5d71014c14d5eff194cdee87ce542e39501d5bd22d1d",
     "7a13b2cd8bbd429e3ebb9aedfc73fb0d5f94c76f39bffb1acefd0d6cb30131ab"),
    ("ea77559806e0728022554429061833f8bd0f3064cde3b8f7ea3a8e3e7d2ffd3b",
     "a552c991f725753773cebf4a58fbeba9d347696fd08dd72a78b67194a30b908a"),
    ("86c1b3261036a8299ab366cd479dcf1b5b2f23151883c84211f33b6f01c39bc2",
     "c43a0ae21715c4d4243fb1f549486e4e6ed5ebe8ba3f4ea5a9703f8f4528430c"),
    ("fc0a166ac7ba0cfb4a18d86e0b1e9d1924584c41af1c6f30cdc224e0ad930a16",
     "b0a1f61eb77bdfc6a08d1b97d0686d18b96558fb7f8d8096a5a25d0b9f73d644"),
    ("4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
     "2c72c68c68ad15a33e742d412dcfde55972ed7aeb5a98ced054c21eadb048b67"),
    ("40d9afd03b3d591c7ae198b6e1f985bd67bd98442def97adb1ad2f6756bfddac",
     "ba320405185202aa2e0be537446e5f739d4b93e3ef9aef15678f98a2cf79aac2"),
]
CONNECTIVITY_PINS = [
    ("816dfe6b59ebf8aee7db862ab1953994d03fa70ce269524bd7b8cb26de195a9f",
     "962d67fd2ec06f1c431cbd6e2f6a32285a417786b779b3838f82edb44a887e53"),
    ("79e66fb0d40d38b9a8c3ee259d2e0e955f2139b96f77bb9e451ad29e1b6a3857",
     "a61f66263e96a7fc706952f1b1369008562bcadefcbbd57ce7339291ef334ee1"),
    ("ef1cdf6e348fb165c41c7a033da458629fc51ec74003cb3d83c6949d833f9423",
     "af139f7dfd0fa12f5db4e5fc8eb40cd73e7de373f6bb2d7bdc02983f250d0372"),
    ("4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
     "1438c985f5bb96a439905804b48732ac27a9e6c4f0830ec455925c0bf6bdd960"),
]
SPARSE_BS_PINS = [
    ("dbb99386b1dee0ca807597589b61a2032b0cdbdcce2bbb1fb0cda53a46b9a9d5",
     "c87b13f8fbd8f93e98f9eb837dfb01e15f9fb7060ecafc3871b9e417733e2a4a"),
    ("4f2a8c37fa1efcc177f534d12bd2b6751d70d629b027ea71d248c0e7160e36e6",
     "ec326b34c38452cbab218921c67ffebc944afe563a67cfc603d4af95990be4ea"),
    ("c175ad272cd52266faeedf097a687129bf1e1be1fe697a5879c30ca0efe636da",
     "2cf8f4e139044fe2daac27ce6a2b9bf6d4b458d0c50e14a1260b63fae97a5f17"),
    ("4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
     "8afaeb20ad764a219276149a55457650e20270796a53b17378ace76b7630da08"),
    ("7ff3f9d049c06b273c1684dc14d8271fb7f65eb9f167c2e85a9bac7c45b57574",
     "60a63a2d9f3af179b73bc0c3183b1444f720f0080833d8ff63d9080196985136"),
]
WIDE_HD_PINS = [
    "1fe5110304407aeea262ce992cd39921791e66d79a4f0ba752522b70ed4de1c2",
    "0469fae3a0049967c981747314404688d45f7c77976b063ed887af8aa0fb463d",
]


@pytest.mark.parametrize("name", ["line", "plane", "space"])
def test_bench_reports_pinned(name, tmp_path):
    g = bench_graph(name)
    assert bench_pins(g, name) == PINS[name]
    if name != "line":
        # the context normalizes the reloaded positions to the same bits
        save_graph(g, str(tmp_path / "g.edges"), {})
        assert bench_pins(load_graph(str(tmp_path / "g.edges")), name) == PINS[name]


def h_graph_pins() -> list[tuple[str, str]]:
    g = build_H(256, seed=1)
    specs = [AttackSpec("random", 4, seed=5), AttackSpec("interval", 8, seed=4),
             AttackSpec("prefix", 5), AttackSpec("greedy-shadow", 4, seed=2)]
    pins = [attack_and_certify(g, spec) for spec in specs]
    pins += [(sha(b), report_sha(certify(g, b))) for b in ([], [100])]
    return pins


def connectivity_pins() -> list[tuple[str, str]]:
    g = build_reliable_connectivity(60, "0.4", seed=17)
    specs = [AttackSpec("random", 6, seed=18), AttackSpec("interval", 30, seed=3),
             AttackSpec("prefix", 55)]
    pins = [attack_and_certify(g, spec) for spec in specs]
    return pins + [(sha([]), report_sha(certify(g, [])))]


def wide_hd_pins() -> list[str]:
    g = wide_hd_graph()
    assert g.meta["M"] == family_size(1, g.meta["sigma"]) == 92
    # survivor 5000 sits alone in a gap of 4999 ranks, short of the 5576 the
    # threshold needs (a threshold of 1 - theta'/3 would shadow it)
    gap = np.setdiff1d(np.arange(g.n), np.r_[0:500, 5000, 5500:g.n])
    lone_survivor = np.arange(9, g.n - 1)  # only 0..8 and n - 1 survive
    return [report_sha(certify(g, bad, pair_budget=200, seed=3))
            for bad in (gap, lone_survivor)]


def sparse_bs_pins() -> list[tuple[str, str]]:
    """Acceptance criterion 6's grid at degree constant 1: 462 of its
    130,816 point pairs are not edges."""
    g = build_bounded_spread_spanner(jittered_grid(16, 32, seed=601), 0.5, Fraction(1, 4),
                                     seed=602, degree_constant_override=1)
    assert g.n * (g.n - 1) // 2 - g.edge_count == 462
    specs = [AttackSpec("random", 32, seed=6000), AttackSpec("ball", 32, seed=6001),
             AttackSpec("interval", 64, seed=6002)]
    pins = [attack_and_certify(g, spec) for spec in specs]
    sampled = [5, 77, 300]
    return pins + [(sha([]), report_sha(certify(g, []))),
                   (sha(sampled), report_sha(certify(g, sampled, pair_budget=20000, seed=9)))]


def test_h_graph_reports_pinned():
    assert h_graph_pins() == H_PINS


def test_connectivity_reports_pinned():
    assert connectivity_pins() == CONNECTIVITY_PINS


def test_sparse_bounded_spread_reports_pinned():
    assert sparse_bs_pins() == SPARSE_BS_PINS


def test_growing_ordering_shadow_reports_pinned():
    assert wide_hd_pins() == WIDE_HD_PINS


def test_few_good_pairs_are_audited_all_on_a_large_graph():
    # 90 good vertices on 6000: their 4005 pairs fit the default budget, so
    # the audit reads each once instead of drawing 10^6 pairs with repeats
    rep = certify(wide_hd_graph(), np.arange(5900), seed=3)
    assert (rep.bplus_size, rep.pair_sampling, rep.pairs_checked) == \
        (5910, {"mode": "all", "pairs": 4005}, 4005)
    assert report_sha(rep) == "a6c57ea339cc7696b642c9ef31952d6f16168fd4056d084bcdd69080e21e375a"
