"""Output checks of the benchmark, computed apart from the program.

Every check returns a list of problems; an empty list means the check
passed.  The checks read only the graph's public arrays (n, u, v, w), the
report's public fields and the inputs the benchmark generated itself.  None
of them compares against a stored copy of an earlier output.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

STRETCH_SLACK = 1.0 + 1e-9  # float slack on top of the exact 1 + eps
WEIGHT_RTOL = 1e-12
ROW_CHUNK = 256  # rows of the interval-count matrix held at once


def euclidean(points: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    diff = points[u] - points[v]
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


def check_canonical(g, n: int, points: np.ndarray | None) -> list[str]:
    """u < v, sorted and unique, ids in range, weights from the metric."""
    u, v, w = np.asarray(g.u), np.asarray(g.v), np.asarray(g.w)
    problems = []
    if g.n != n:
        problems.append(f"graph has n={g.n}, inputs have n={n}")
    if not (u.size == v.size == w.size):
        return problems + ["edge arrays differ in length"]
    if u.size == 0:
        return problems + ["graph has no edges"]
    if not (u < v).all():
        problems.append("an edge has u >= v")
    if u.min() < 0 or v.max() >= n:
        problems.append("an endpoint is out of range")
    key = u.astype(np.int64) * n + v
    if not (np.diff(key) > 0).all():
        problems.append("edges are not sorted and unique")
    expect = (v - u).astype(np.float64) if points is None else euclidean(points, u, v)
    bad = ~np.isclose(w, expect, rtol=WEIGHT_RTOL, atol=0.0)
    if bad.any():
        i = int(np.argmax(bad))
        problems.append(f"{int(bad.sum())} weights disagree with the metric, "
                        f"first ({u[i]}, {v[i]}): {w[i]!r} != {expect[i]!r}")
    return problems


def check_roundtrip(built, loaded) -> list[str]:
    """The reloaded graph has exactly the built graph's edges and weights."""
    if loaded.n != built.n:
        return [f"reloaded n={loaded.n}, built n={built.n}"]
    if not (np.array_equal(loaded.u, built.u) and np.array_equal(loaded.v, built.v)):
        return ["reloaded edges differ from the built edges"]
    if not np.array_equal(loaded.w, built.w):
        return ["reloaded weights differ from the built weights"]
    return []


def check_attack(bad: np.ndarray, k: int, n: int, at_most: bool) -> list[str]:
    """k distinct in-range ids (at most k for the greedy attack)."""
    bad = np.asarray(bad)
    problems = []
    if np.unique(bad).size != bad.size:
        problems.append("attack repeats an id")
    if bad.size and (bad.min() < 0 or bad.max() >= n):
        problems.append("attack id out of range")
    if (bad.size > k) if at_most else (bad.size != k):
        problems.append(f"attack has {bad.size} ids, expected {'at most ' if at_most else ''}{k}")
    if bad.size == 0:
        problems.append("attack is empty")
    return problems


def check_report(rep, k: int, theta: Fraction) -> list[str]:
    """The report passes and |B| <= |B+| <= (1 + theta)|B|."""
    problems = []
    if not rep.passed:
        problems.append(f"report did not pass (bound_ok={rep.bound_ok}, "
                        f"failing_outside={rep.failing_outside})")
    if rep.k != k:
        problems.append(f"report has |B|={rep.k}, the attack has {k}")
    if not (k <= rep.bplus_size <= (1 + theta) * k):
        problems.append(f"|B+|={rep.bplus_size} outside [{k}, {(1 + theta) * k}]")
    return problems


def check_shadow_size(bplus: np.ndarray, rep) -> list[str]:
    """The shadow recomputed here has the size the report gives."""
    if rep.bplus_size != bplus.size:
        return [f"recomputed |B+|={bplus.size}, the report has {rep.bplus_size}"]
    return []


# ---------------------------------------------------------------------------
# shadows recomputed from their definitions
# ---------------------------------------------------------------------------

def line_shadow(n: int, bad: np.ndarray, alpha: Fraction) -> np.ndarray:
    """x is shadowed when an interval with x as its left or right end holds
    at least an alpha share of failed positions.  Counts every interval."""
    p, q = alpha.numerator, alpha.denominator
    failed = np.zeros(n + 1, dtype=np.int64)
    np.add.at(failed, np.asarray(bad, dtype=np.int64) + 1, 1)
    count = np.cumsum(failed)  # count[i] = failed positions in [0, i)
    ends = np.arange(n, dtype=np.int64)
    member = np.zeros(n, dtype=bool)
    for lo in range(0, n, ROW_CHUNK):
        x = ends[lo:lo + ROW_CHUNK, None]
        # left end x, right end j >= x
        bad_r = count[ends + 1][None, :] - count[x]
        len_r = ends[None, :] - x + 1
        ok_r = (ends[None, :] >= x) & (q * bad_r >= p * len_r)
        # right end x, left end i <= x
        bad_l = count[x + 1] - count[ends][None, :]
        len_l = x - ends[None, :] + 1
        ok_l = (ends[None, :] <= x) & (q * bad_l >= p * len_l)
        member[lo:lo + ROW_CHUNK] = (ok_r | ok_l).any(axis=1)
    return np.nonzero(member)[0]


def cell_shadow(normed: np.ndarray, bad: np.ndarray, gamma: Fraction,
                max_level: int = 64) -> np.ndarray:
    """Union of the points of every dyadic cell of [0,1)^d, at any level,
    that holds at least a gamma share of failed points.  The cells of a
    compressed quadtree have the same point sets, so this is its shadow."""
    p, q = gamma.numerator, gamma.denominator
    n = normed.shape[0]
    is_bad = np.zeros(n, dtype=np.int64)
    is_bad[bad] = 1
    member = is_bad.astype(bool)  # singleton cells: every failed point
    for level in range(max_level + 1):
        cells = np.floor(normed * float(1 << level)).astype(np.int64)
        _, cell_of, size = np.unique(cells, axis=0, return_inverse=True,
                                     return_counts=True)
        cell_of = cell_of.ravel()
        failed = np.bincount(cell_of, weights=is_bad, minlength=size.size)
        member |= (q * failed >= p * size)[cell_of]
        if size.max() == 1:
            break
    return np.nonzero(member)[0]


# ---------------------------------------------------------------------------
# the spanner property on a sample of surviving pairs
# ---------------------------------------------------------------------------

def _good(n: int, bad: np.ndarray, bplus: np.ndarray) -> np.ndarray:
    keep = np.ones(n, dtype=bool)
    keep[bad] = False
    keep[bplus] = False
    return np.nonzero(keep)[0]


def _sample_sources(good: np.ndarray, count: int, rng) -> np.ndarray:
    if good.size <= count:
        return good
    return np.sort(rng.choice(good, size=count, replace=False))


def check_line_pairs(g, bad, bplus, hop_cap: int, sources: int, rng) -> list[str]:
    """From each sampled source s outside B+, every survivor t > s outside
    B+ is reached by a monotone path (right-edges between alive vertices)
    of at most hop_cap hops."""
    n = g.n
    good = _good(n, bad, bplus)
    alive = np.ones(n, dtype=bool)
    alive[bad] = False
    u, v = np.asarray(g.u), np.asarray(g.v)
    keep = alive[u] & alive[v] & (u < v)
    right = csr_matrix((np.ones(int(keep.sum())), (u[keep], v[keep])), shape=(n, n))
    srcs = _sample_sources(good, sources, rng)
    hops = np.atleast_2d(dijkstra(right, directed=True, indices=srcs,
                                  unweighted=True, limit=hop_cap + 0.5))
    problems = []
    for row, s in enumerate(srcs.tolist()):
        targets = good[good > s]
        miss = targets[~(hops[row, targets] <= hop_cap)]
        if miss.size:
            problems.append(f"no monotone path within {hop_cap} hops from {s} "
                            f"to {miss.size} survivors, first {int(miss[0])}")
    return problems


def check_stretch_pairs(g, points: np.ndarray, bad, bplus, epsilon: float,
                        sources: int, rng) -> list[str]:
    """From each sampled source s outside B+, every other survivor t
    outside B+ has graph distance in G - B at most (1 + eps)|st|; the
    distances are computed here from weights recomputed from the points."""
    n = g.n
    good = _good(n, bad, bplus)
    alive = np.ones(n, dtype=bool)
    alive[bad] = False
    u, v = np.asarray(g.u), np.asarray(g.v)
    keep = alive[u] & alive[v]
    u, v = u[keep], v[keep]
    w = euclidean(points, u, v)
    graph = csr_matrix((w, (u, v)), shape=(n, n))
    srcs = _sample_sources(good, sources, rng)
    dist = np.atleast_2d(dijkstra(graph, directed=False, indices=srcs))
    limit = (1.0 + epsilon) * STRETCH_SLACK
    problems = []
    for row, s in enumerate(srcs.tolist()):
        targets = good[good != s]
        direct = euclidean(points, np.full(targets.size, s), targets)
        stretch = dist[row, targets] / direct
        over = ~(stretch <= limit)
        if over.any():
            i = int(np.argmax(np.where(over, stretch, -np.inf)))
            problems.append(f"stretch {stretch[i]:.6g} > {limit:.6g} from {s} to "
                            f"{int(targets[i])} ({int(over.sum())} pairs over)")
    return problems
