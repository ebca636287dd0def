"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Feeds the checks broken outputs and intact ones: a line graph with one edge
removed, so that a checked survivor pair loses its monotone path, a plane
graph without the edge whose best detour has the least stretch over
1 + eps, and a saved graph whose reloaded edges differ from the built
ones must be reported as failed; the intact graphs must pass.  It also
compares the shadows the checks recompute with relspan's on small random
inputs.  Exits 0 when all hold.
"""

from __future__ import annotations

import shutil
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

import checks
import workload as wk

sys.path.insert(0, str(wk.ROOT / "src"))
import relspan  # noqa: E402
import relspan.cli  # noqa: E402

SMALL = replace(wk.WORKLOADS["line"], n=32, attacks=(("random", 1),))
SMALL_PLANE = replace(wk.WORKLOADS["plane"], n=16, grid=(4, 4), attacks=(("random", 1),))
CUT = 20  # the edge (CUT, CUT + 1) is the only monotone path between its ends


def round_of(g, bad) -> dict:
    bad = np.asarray(bad, dtype=np.int64)
    rep = relspan.harness.certify(g, bad)
    return {"graph": g, "loaded": g, "attacks": [("random", 1, bad, rep)]}


def without_edge(g, a: int, b: int):
    keep = ~((g.u == a) & (g.v == b))
    return relspan.WeightedGraph(g.n, g.u[keep].copy(), g.v[keep].copy(), g.w[keep].copy(),
                                 positions=g.positions, meta=g.meta)


def test_line_pair_lost(g) -> list[str]:
    errors = []
    intact, broken = wk.Tally(), wk.Tally()
    wk.check_round(SMALL, None, 1, round_of(g, [0]), intact)
    if intact.failed:
        errors.append(f"intact line graph reported as failed: {intact.problems}")
    wk.check_round(SMALL, None, 1, round_of(without_edge(g, CUT, CUT + 1), [0]), broken)
    if not any(p.startswith("random pairs") for p in broken.problems):
        errors.append(f"the lost pair ({CUT}, {CUT + 1}) was not reported: {broken.problems}")
    if broken.failed == 0:
        errors.append("a line graph missing an edge was not counted as failed")
    return errors


def test_plane_pair_stretched() -> list[str]:
    """Without the edge (s, t) whose best detour, s-w-t, is the shortest one
    over 1 + eps, the pair's stretch is just over 1 + eps (1.53 at seed 1):
    the stretch check must report it, and the intact graph must pass."""
    errors = []
    points = wk.make_points(SMALL_PLANE, 1)
    g = wk.build(relspan, SMALL_PLANE, points, 1)
    n = len(points)
    far = n - 1  # the failed vertex, a corner
    dist = np.linalg.norm(points[:, None] - points[None, :], axis=2)
    limit = 1 + SMALL_PLANE.epsilon
    best = None
    for a in range(far):
        for b in range(a + 1, far):
            via = [w for w in range(far) if w not in (a, b)]
            detour = float(np.min(dist[a, via] + dist[via, b])) / dist[a, b]
            if detour > limit * 1.01 and (best is None or detour < best[0]):
                best = (detour, a, b)
    _, s, t = best
    intact, broken = wk.Tally(), wk.Tally()
    wk.check_round(SMALL_PLANE, points, 1, round_of(g, [far]), intact)
    if intact.failed:
        errors.append(f"intact plane graph reported as failed: {intact.problems}")
    wk.check_round(SMALL_PLANE, points, 1, round_of(without_edge(g, s, t), [far]), broken)
    if not any(p.startswith("random pairs") and "stretch" in p for p in broken.problems):
        errors.append(f"the stretched pair ({s}, {t}) was not reported: {broken.problems}")
    return errors


def test_roundtrip_differs(g, workdir: Path) -> list[str]:
    """A reload that loses an edge, and one that swaps an edge for a new one."""
    errors = []
    g = without_edge(g, CUT, CUT + 1)
    path = workdir / "graph.edges"
    relspan.cli.save_graph(g, str(path), {"command": "selftest"})
    if checks.check_roundtrip(g, relspan.cli.load_graph(str(path))):
        errors.append("an intact round trip was reported as failed")
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))
    if not checks.check_roundtrip(g, relspan.cli.load_graph(str(path))):
        errors.append("a reloaded graph missing an edge passed the round-trip check")
    path.write_text("".join([f"{CUT} {CUT + 1} 1.0\n"] + lines[1:]))
    if not checks.check_roundtrip(g, relspan.cli.load_graph(str(path))):
        errors.append("a reloaded graph with a swapped edge passed the round-trip check")
    return errors


def test_shadows_match_relspan() -> list[str]:
    errors = []
    rng = np.random.default_rng(7)
    alpha = 1 - wk.WORKLOADS["line"].theta / 4
    # 7 of 8 positions failed: 7 and 8 are shadowed only at equality
    cases = [(16, np.arange(7)), (16, np.arange(9, 16))]
    for _ in range(40):
        n = int(rng.integers(2, 200))
        cases.append((n, np.nonzero(rng.random(n) < rng.random())[0]))
    for n, bad in cases:
        mine = checks.line_shadow(n, bad, alpha)
        theirs = relspan.shadow.shadow_1d(n, bad, alpha).members
        if not np.array_equal(mine, theirs):
            errors.append(f"line shadow differs from relspan at n={n}, B={bad.tolist()}")
    gamma = 1 - wk.WORKLOADS["plane"].theta / 2
    for d in (2, 3):
        # 100 good points around a tight cluster of 8 with 7 failed: only
        # deep cells reach the 7/8 share, so the cluster's good point joins B+
        cluster = np.vstack([rng.random((100, d)), 0.5 + 1e-4 * rng.random((8, d))])
        cases = [(cluster, np.arange(100, 107))]
        for _ in range(20):
            pts = rng.random((int(rng.integers(2, 120)), d))
            cases.append((pts, np.nonzero(rng.random(len(pts)) < rng.random())[0]))
        for pts, bad in cases:
            normed, _, _ = relspan.quadtree.normalize_unit(pts)
            tree = relspan.build_quadtree(normed, already_normalized=True)
            theirs = relspan.shadow_quadtree(tree, bad, gamma).members
            if not np.array_equal(checks.cell_shadow(normed, bad, gamma), theirs):
                errors.append(f"cell shadow differs from relspan (d={d}, n={len(pts)})")
    return errors


def main() -> int:
    g = wk.build(relspan, SMALL, None, 1)
    workdir = wk.OUT / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        results = {
            "line graph missing an edge": test_line_pair_lost(g),
            "plane graph missing the edge of its least detour": test_plane_pair_stretched(),
            "round trip that changes the edges": test_roundtrip_differs(g, workdir),
            "recomputed shadows agree with relspan": test_shadows_match_relspan(),
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, errors in results.items():
        print(f"{'ok  ' if not errors else 'FAIL'} {name}")
        for err in errors:
            print(f"     {err}")
    return 0 if not any(results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
