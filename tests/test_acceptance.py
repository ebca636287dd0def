"""End-to-end acceptance suite.

Each test covers one headline guarantee at its stated scale and tolerance and
prints a PASS/FAIL line to the real terminal (bypassing capture) so a full
run reads as a checklist.  These are slower than the unit tests; run them
with `pytest tests/test_acceptance.py -v`.
"""

import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from relspan.expanders import (build_reliable_connectivity, build_strong_expander,
                               build_verified_bipartite, verify_strong_expansion)
from relspan.graph_core import PointSet
from relspan.harness import AttackSpec, certify, generate_attack
from relspan.lso import build_ordering_family, check_lso_property
from relspan.shadow import (check_shadow_bounds, cone_mark_unsafe, shadow_1d,
                            shadow_balls_oracle)
from relspan.spanner1d import build_G_theta, build_H
from relspan.spanner_euclidean import build_bounded_spread_spanner, build_hd_spanner
from relspan.streams import substream

from helpers import h_level_budget, save_points
from oracles import find_exact_paths, shadow_1d_bruteforce

pytestmark = pytest.mark.acceptance


def _report(name: str, ok: bool, detail: str = ""):
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line, file=sys.__stderr__, flush=True)
    assert ok, line


def jittered_grid(rows, cols, seed=0, jitter=0.2):
    rng = substream(seed, "accept-grid")
    xs, ys = np.meshgrid(np.arange(cols, dtype=np.float64),
                         np.arange(rows, dtype=np.float64))
    pts = np.stack([xs.ravel(), ys.ravel()], axis=1)
    return pts + rng.uniform(-jitter, jitter, size=pts.shape)


# -- 1: shadow exactness ------------------------------------------------------

def test_criterion_1_shadow_exactness():
    t0 = time.perf_counter()
    rng = substream(101, "c1")
    for trial in range(500):
        n = int(rng.integers(2, 65))
        k = int(rng.integers(0, n + 1))
        bad = rng.choice(n, size=k, replace=False)
        alpha = Fraction(int(rng.integers(1, 10)), 10)
        res = shadow_1d(n, bad, alpha)
        want = shadow_1d_bruteforce(n, bad.tolist(), alpha)
        assert set(res.members.tolist()) == want, (n, bad, alpha)
        rep = check_shadow_bounds(res, bad)
        assert rep["general_ok"]
        assert rep.get("tight_ok", True)
    elapsed = time.perf_counter() - t0
    _report("1 shadow exactness", elapsed < 10, f"500 instances in {elapsed:.1f}s")


# -- 2: expander expansion ----------------------------------------------------

def test_criterion_2_expander_expansion():
    t0 = time.perf_counter()
    g, attempts, res = build_verified_bipartite(12, 12, Fraction(1, 4), seed=202,
                                                max_attempts=20)
    assert res.passed and attempts <= 20
    strong = build_strong_expander(16, 2, Fraction(1, 2), seed=203)
    sres = verify_strong_expansion(strong, 2, Fraction(1, 2))
    assert sres.passed
    elapsed = time.perf_counter() - t0
    _report("2 expander expansion", elapsed < 60,
            f"bipartite attempts={attempts}, strong checked={sres.checked}, {elapsed:.1f}s")


# -- 3: reliable connectivity -------------------------------------------------

def test_criterion_3_reliable_connectivity():
    t0 = time.perf_counter()
    n, theta, k = 200, Fraction(2, 5), 20
    g = build_reliable_connectivity(n, theta, seed=301)
    floor = n - math.ceil((1 + theta) * k)
    rng = substream(302, "c3")
    worst = n
    for _ in range(500):
        bad = rng.choice(n, size=k, replace=False)
        rep = certify(g, bad)
        largest = n - rep.bplus_size
        worst = min(worst, largest)
        assert rep.passed
        assert largest >= n - (1 + theta) * k
    elapsed = time.perf_counter() - t0
    _report("3 reliable connectivity", elapsed < 30,
            f"500 trials, smallest giant component {worst} >= {floor}, {elapsed:.1f}s")


# -- 4: block-tree 1D reliability --------------------------------------------

def test_criterion_4_h_reliability():
    t0 = time.perf_counter()
    n = 1024
    g = build_H(n, Fraction(1, 16), seed=401)
    budget = h_level_budget(n, Fraction(1, 16))
    assert n - 1 <= g.edge_count <= budget
    alpha = Fraction(1, 96)
    assert g.meta["cert_alpha"] == str(alpha)
    # pure audit first: every pair of a fresh build has a 1-path
    rep0 = certify(g, [])
    assert rep0.passed and rep0.pairs_checked == n * (n - 1) // 2
    kinds = ["random", "interval", "greedy-shadow"]
    ks = [8, 32, 128]
    attacks = [(kinds[i % 3], ks[(i // 3) % 3], i) for i in range(50)]
    for kind, k, i in attacks:
        spec = AttackSpec(kind, k, seed=4000 + i)
        bad = generate_attack(spec, g)
        shadowed = shadow_1d(n, bad, alpha).members
        assert shadowed.size <= 200 * bad.size
        rep = certify(g, bad, attack=spec)
        assert rep.passed, (kind, k, rep.failing_sample)
    elapsed = time.perf_counter() - t0
    _report("4 block-tree reliability", elapsed < 300,
            f"50 attacks, edges={g.edge_count} in [{n - 1}, {budget}], {elapsed:.1f}s")


# -- 5: shifted-interval 1D reliability ---------------------------------------

def test_criterion_5_g_theta_reliability():
    t0 = time.perf_counter()
    n, theta = 4096, Fraction(1, 2)
    g = build_G_theta(n, theta, c=8, mode="experimental", seed=501)
    hop_cap = 2 * int(math.log2(n))
    assert g.meta["hop_cap"] == hop_cap == 24
    # sampling-budget arithmetic: measured edges within G0 band + layer budget
    assert g.edge_count <= 3 * g.meta["N"] * n + g.meta["sample_budget"]
    kinds = ["random", "interval", "prefix"]
    ks = [16, 64, 256]
    for i in range(30):
        kind, k = kinds[i % 3], ks[(i // 3) % 3]
        spec = AttackSpec(kind, k, seed=5000 + i)
        bad = generate_attack(spec, g)
        rep = certify(g, bad, attack=spec)
        assert rep.passed, (kind, k, rep.failing_sample)
        assert rep.max_hops is not None and rep.max_hops <= hop_cap
    # spot-check exact path lengths at the stated tolerance
    rng = substream(502, "c5-paths")
    pairs = [sorted(rng.choice(n, size=2, replace=False).tolist()) for _ in range(50)]
    for (s, t), res in zip(pairs, find_exact_paths(g, [], pairs, hop_cap=hop_cap)):
        assert res.found
        assert abs(res.length - (t - s)) <= 1e-9 * (t - s)
    # faithful constants at the largest power of two with N < n
    gf = build_G_theta(n, theta, c=512, mode="faithful", seed=503)
    assert gf.meta["N"] == 2048 < n
    assert gf.meta["regime"] == "g0_clique"  # the report labels the regime
    repf = certify(gf, generate_attack(AttackSpec("random", 64, seed=504), gf))
    assert repf.passed and repf.regime == "g0_clique"
    elapsed = time.perf_counter() - t0
    _report("5 shifted-interval reliability", elapsed < 600,
            f"30 attacks with hop cap {hop_cap}, faithful regime "
            f"'{gf.meta['regime']}', {elapsed:.1f}s")


# -- 6: bounded-spread spanner -------------------------------------------------

def test_criterion_6_bounded_spread():
    t0 = time.perf_counter()
    pts = jittered_grid(16, 32, seed=601)
    ps = PointSet(pts)
    assert ps.spread <= 64
    theta = Fraction(1, 4)
    g = build_bounded_spread_spanner(pts, 0.5, theta, seed=602)
    assert g.meta["gamma"] == str(Fraction(7, 8))
    rep0 = certify(g, [])
    assert rep0.passed
    assert rep0.max_stretch <= 1.5 * (1 + 1e-9)
    # per-point membership constant
    eps_pow = 0.5 ** -2
    logphi = math.log2(ps.spread)
    K = g.meta["wspd_max_membership"] / (eps_pow * logphi)
    assert K <= 64
    kinds = ["random", "ball", "interval"]
    ks = [8, 32, 64]
    for i in range(30):
        kind, k = kinds[i % 3], ks[(i // 3) % 3]
        spec = AttackSpec(kind, k, seed=6000 + i)
        bad = generate_attack(spec, g)
        rep = certify(g, bad, attack=spec)
        assert rep.bplus_size <= (1 + theta) * bad.size
        assert rep.passed, (kind, k, rep.failing_sample)
        assert rep.max_stretch is None or rep.max_stretch <= 1.5 * (1 + 1e-9)
    elapsed = time.perf_counter() - t0
    _report("6 bounded-spread spanner", elapsed < 600,
            f"stretch<=1.5, 30 attacks, K={K:.2f}, {elapsed:.1f}s")


# -- 7: ordering-union spanner -------------------------------------------------

def test_criterion_7_hd_spanner():
    t0 = time.perf_counter()
    pts = jittered_grid(16, 32, seed=701)
    theta = Fraction(1, 2)
    g = build_hd_spanner(pts, 0.5, theta, variant="improved", seed=702,
                         sub_c=8, sub_mode="experimental")
    rep0 = certify(g, [])
    assert rep0.passed
    assert rep0.max_stretch <= 1.5 * (1 + 1e-9)
    for i in range(20):
        spec = AttackSpec("random", 8 + (i % 4) * 8, seed=7000 + i)  # k <= 32
        bad = generate_attack(spec, g)
        rep = certify(g, bad, attack=spec)
        assert rep.bplus_size <= 1.5 * bad.size
        assert rep.failing_outside == 0
        assert rep.passed
        assert not any("mismatch" in note for note in rep.notes)
    elapsed = time.perf_counter() - t0
    _report("7 ordering-union spanner", elapsed < 900,
            f"M={g.meta['M']}, theta'={g.meta['theta_prime']}, "
            f"regime={g.meta['regime']}, {elapsed:.1f}s")


# -- 8: LSO property -----------------------------------------------------------

def test_criterion_8_lso_property():
    t0 = time.perf_counter()
    rates = {}
    for sigma in (0.25, 0.125):
        fam = build_ordering_family(2, sigma)
        rng = substream(801, "c8", str(sigma))
        found = 0
        trials = 10 ** 4
        for t in range(trials):
            p, q = rng.random(2), rng.random(2)
            res = check_lso_property(fam, p, q, sample_count=200, seed=t)
            found += res.ok
        rates[sigma] = found / trials
        assert rates[sigma] >= 0.99, (sigma, rates[sigma])
    # comparator sanity at scale: totality and no cyclic triples
    fam = build_ordering_family(2, 0.25)
    rng = substream(802, "c8-keys")
    pts = rng.random((100_000, 2))
    o = fam.orderings[7]
    keys = o.keys(pts)
    assert keys.shape[1] == 1
    keys = keys[:, 0]
    ids = np.arange(len(pts))
    perm = np.lexsort((ids, keys))
    ks, is_ = keys[perm], ids[perm]
    assert ((ks[:-1] < ks[1:]) | ((ks[:-1] == ks[1:]) & (is_[:-1] < is_[1:]))).all()
    tri = rng.integers(0, len(pts), size=(100_000, 3))
    a, b, c = keys[tri[:, 0]], keys[tri[:, 1]], keys[tri[:, 2]]
    assert not ((a < b) & (b < c) & (c < a)).any()
    elapsed = time.perf_counter() - t0
    _report("8 LSO property", elapsed < 120,
            f"witness rates {rates}, {elapsed:.1f}s")


# -- 9: ball shadow vs cone marking -------------------------------------------

def test_criterion_9_cone_marking():
    t0 = time.perf_counter()
    for alpha in (Fraction(1, 4), Fraction(1, 2)):
        cap = 1 + 6 * math.ceil(1 / alpha)
        for trial in range(50):
            pts = substream(901 + trial, "c9-pts", str(alpha)).random((200, 2))
            k = int(substream(902 + trial, "c9-k").integers(5, 25))
            bad = substream(903 + trial, "c9-bad", str(alpha)).choice(200, size=k,
                                                                      replace=False)
            unsafe = cone_mark_unsafe(pts, bad, alpha)
            assert len(unsafe) <= k * cap
            oracle = shadow_balls_oracle(pts, bad, alpha)
            assert set(oracle.members.tolist()) <= set(unsafe.tolist())
    elapsed = time.perf_counter() - t0
    _report("9 cone marking superset", elapsed < 30, f"100 trials, {elapsed:.1f}s")


# -- 10: determinism ------------------------------------------------------------

def test_criterion_10_determinism(tmp_path):
    t0 = time.perf_counter()
    pts = jittered_grid(6, 6, seed=1001)
    pfile = tmp_path / "pts.txt"
    save_points(pts, pfile)
    commands = {
        "h": ["build", "1d-const", "--n", "64", "--xi", "1/2", "--seed", "5"],
        "gt": ["build", "1d-theta", "--n", "128", "--theta", "0.5", "--c", "8",
               "--mode", "experimental", "--seed", "6"],
        "bs": ["build", "bounded-spread", "--points", str(pfile), "--eps", "0.5",
               "--theta", "0.25", "--seed", "7"],
        "hd": ["build", "hd", "--points", str(pfile), "--eps", "0.5", "--theta",
               "0.5", "--sub-c", "8", "--sub-mode", "experimental", "--seed", "8"],
        "exp": ["expander", "bipartite", "--left", "20", "--right", "20", "--xi",
                "1/2", "--override-c", "3", "--seed", "9"],
    }
    for name, argv in commands.items():
        outs = []
        for run_idx, hashseed in enumerate(("0", "424242")):
            out = tmp_path / f"{name}-{run_idx}.edges"
            env = dict(os.environ, PYTHONHASHSEED=hashseed)
            res = subprocess.run(
                [sys.executable, "-m", "relspan.cli", *argv, "-o", str(out)],
                capture_output=True, text=True, env=env)
            assert res.returncode == 0, res.stderr
            outs.append(out.read_bytes())
        assert outs[0] == outs[1], f"{name} edge lists differ between runs"
    elapsed = time.perf_counter() - t0
    _report("10 determinism", True, f"5 builds x 2 hash-seed runs, {elapsed:.1f}s")
