"""Exact shadow computations: 1D left/right, quadtree cells, Euclidean balls.

A vertex is shadowed when some neighborhood anchored at it is at least an
alpha-fraction failed.  All membership tests here are exact integer
comparisons: thresholds are Fractions, never floats, so results are
bit-stable and witnesses can be replayed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graph_core import _INT64_SAFE, clean_vertex_set, fraction_in
from .graph_core import as_fraction  # noqa: F401  (shadow.as_fraction stays importable)


@dataclass
class ShadowResult:
    alpha: Fraction
    n: int
    side: str  # "left" | "right" | "both"
    members: np.ndarray
    witnesses: dict[int, tuple[int, int]] | None = None

    @property
    def size(self) -> int:
        return int(self.members.size)


# ---------------------------------------------------------------------------
# 1D shadow
# ---------------------------------------------------------------------------

_CANDIDATE_BLOCK = 1024  # candidate rows per block of shadow_1d_candidate_sizes


def _prefix_sufmax(n: int, bad: np.ndarray, p: int, q: int,
                   dtype=np.int64) -> tuple[np.ndarray, np.ndarray]:
    """Bad positions score q-p and good ones -p.  prefix[i] is the score of
    [0, i) and sufmax[i] = max over j >= i of prefix[j + 1], so i is in the
    left shadow iff sufmax[i] >= prefix[i].  dtype object keeps Python ints."""
    y = np.full(n, -p, dtype=dtype)
    y[bad] += q
    prefix = np.concatenate([np.zeros(1, dtype=dtype), np.cumsum(y)])
    sufmax = np.maximum.accumulate(prefix[1:][::-1])[::-1]
    return prefix, sufmax


def _left_shadow(n: int, bad: np.ndarray, p: int, q: int,
                 witness: bool) -> tuple[np.ndarray, dict[int, tuple[int, int]]]:
    """Left shadow members, ascending, and with witness=True each member's
    witness (i, j), in decreasing i.

    i is a member iff some run [i, j] has score sum >= 0.  Its witness right
    end j is the leftmost j >= i whose run reaches the best score, i.e. the
    first j >= i with prefix[j + 1] == sufmax[j].  Scores are int64 below
    2^62 and Python ints above.
    """
    dtype = np.int64 if q * (n + 1) < _INT64_SAFE else object
    prefix, sufmax = _prefix_sufmax(n, bad, p, q, dtype)
    members = np.nonzero(sufmax >= prefix[:-1])[0].astype(np.int64)
    if not witness:
        return members, {}
    ends = np.where(prefix[1:] == sufmax, np.arange(n), n)
    right = np.minimum.accumulate(ends[::-1])[::-1]
    down = members[::-1].tolist()
    return members, dict(zip(down, zip(down, right[members[::-1]].tolist())))


def shadow_1d(n: int, B, alpha, side: str = "both", witness: bool = False) -> ShadowResult:
    """Exact alpha-shadow of B on {0, ..., n-1}, O(n) per side.

    Left shadow: i such that some interval [i, j] (j >= i) has at least an
    alpha fraction of failed positions; the right shadow is the mirror image.
    """
    a = fraction_in(alpha, "alpha", closed=True)
    if side not in ("left", "right", "both"):
        raise ValueError("side must be left, right or both")
    bad = clean_vertex_set(B, n)
    p, q = a.numerator, a.denominator

    members_by_side = {}
    witnesses: dict[int, tuple[int, int]] = {}
    if side in ("left", "both"):
        members_by_side["left"], wit = _left_shadow(n, bad, p, q, witness)
        witnesses.update(wit)
    if side in ("right", "both"):
        # mirroring reverses the order of sorted ids
        mem, wit = _left_shadow(n, (n - 1 - bad)[::-1], p, q, witness)
        members_by_side["right"] = (n - 1 - mem)[::-1]
        for i, (lo, hi) in wit.items():
            witnesses[n - 1 - i] = (n - 1 - hi, n - 1 - lo)

    if side == "both":
        members = clean_vertex_set(
            np.concatenate([members_by_side["left"], members_by_side["right"]]), n)
    else:
        members = members_by_side[side]
    return ShadowResult(a, n, side, members, witnesses if witness else None)


def _left_gains(prefix: np.ndarray, sufmax: np.ndarray, q: int,
                outside: np.ndarray) -> np.ndarray:
    """Entry v counts the positions i <= v with outside[i] whose left test
    passes once v fails as well: a failure at v lifts prefix[j + 1] by q for
    every j >= v, so i <= v joins iff prefix[i] <= sufmax[v] + q.  Positions
    i > v keep their test.  Meaningful for the v not yet failed."""
    n = outside.size
    cols = np.nonzero(outside)[0]
    vals = prefix[cols]
    limit = sufmax + q
    counts = np.zeros(n, dtype=np.int64)
    for lo in range(0, n, _CANDIDATE_BLOCK):
        rows = np.arange(lo, min(n, lo + _CANDIDATE_BLOCK))
        hit = (cols[None, :] <= rows[:, None]) & (vals[None, :] <= limit[rows, None])
        counts[rows] = hit.sum(axis=1)
    return counts


def shadow_1d_candidate_sizes(n: int, B, alpha) -> np.ndarray:
    """Entry v is |shadow_1d(n, B + {v}, alpha)| (both sides), for every v.

    One pass over the prefix/suffix-max arrays of each side instead of n
    shadow computations: a new failure at v only adds positions i <= v to
    the left shadow and i >= v to the right one, v itself to both.
    Integer-exact: int64 while every score stays below 2^62, the same code
    on Python ints above that.
    """
    a = fraction_in(alpha, "alpha", closed=True)
    bad = clean_vertex_set(B, n)
    p, q = a.numerator, a.denominator
    dtype = np.int64 if q * (n + 1) < _INT64_SAFE else object
    left = _prefix_sufmax(n, bad, p, q, dtype)
    right = _prefix_sufmax(n, n - 1 - bad, p, q, dtype)  # mirrored line
    inside = (left[1] >= left[0][:-1]) | (right[1] >= right[0][:-1])[::-1]
    outside = ~inside
    old = int(inside.sum())
    sizes = (old + _left_gains(*left, q, outside)
             + _left_gains(*right, q, outside[::-1])[::-1] - outside)
    sizes[bad] = old
    return sizes


def check_shadow_bounds(result: ShadowResult, B) -> dict:
    """Size-bound report: the general 2(1 + ceil(1/a))|B| cap, plus the
    |B| / (2a - 1) cap that kicks in for a in (2/3, 1)."""
    a = result.alpha
    k = clean_vertex_set(B, result.n).size
    per_side = (1 + math.ceil(1 / a))
    general = per_side * k if result.side in ("left", "right") else 2 * per_side * k
    report = {
        "size": result.size,
        "bad": int(k),
        "general_bound": int(general),
        "general_ok": result.size <= general,
    }
    if Fraction(2, 3) < a < 1 and result.side == "both":
        # exact comparison: |shadow| * (2a - 1) <= |B|
        ok = result.size * (2 * a - 1) <= k
        report["tight_bound"] = float(k / (2 * a - 1))
        report["tight_ok"] = bool(ok)
    return report


# ---------------------------------------------------------------------------
# quadtree shadow
# ---------------------------------------------------------------------------

@dataclass
class QuadtreeShadow:
    gamma: Fraction
    members: np.ndarray
    shadowed_nodes: list[int]
    maximal_nodes: list[int]

    @property
    def size(self) -> int:
        return int(self.members.size)


def _at_least(fraction: Fraction, part: np.ndarray, whole: np.ndarray) -> np.ndarray:
    """part >= fraction * whole, elementwise and exact: int64 products while
    they stay below 2^62, Python-int products above."""
    p, q = fraction.numerator, fraction.denominator
    if q * (int(whole.max(initial=0)) + 1) >= _INT64_SAFE:
        part, whole = part.astype(object), whole.astype(object)
    return q * part >= p * whole


def _quadtree_failures(tree, B, gamma):
    """(gamma, failed points of B per cell, mask of the cells that are
    >= gamma failed, B as sorted ids)."""
    g = fraction_in(gamma, "gamma", closed=True)
    bad = clean_vertex_set(B, tree.n_points)
    nbad = tree.count(bad)
    return g, nbad, (tree.size > 0) & _at_least(g, nbad, tree.size), bad


def shadow_quadtree(tree, B, gamma) -> QuadtreeShadow:
    """Union of the point sets of all tree cells that are >= gamma failed.

    Failed points are counted per cell along each point's root path;
    membership comparisons are integer-exact.  shadowed_nodes lists the
    shadowed cells in the order of Quadtree.postorder, maximal_nodes those
    of them with no shadowed ancestor, in the same order.
    """
    g, _, shadowed, _ = _quadtree_failures(tree, B, gamma)
    on_path = shadowed[tree.paths]
    covered = np.nonzero(on_path.any(axis=1))[0]
    maximal = np.zeros(tree.size.size, dtype=bool)  # a covered point's top shadowed cell
    maximal[tree.paths[covered, on_path[covered].argmax(axis=1)]] = True
    post = tree.postorder
    return QuadtreeShadow(g, covered.astype(np.int64), post[shadowed[post]].tolist(),
                          post[maximal[post]].tolist())


def shadow_quadtree_candidate_sizes(tree, B, gamma) -> np.ndarray:
    """Entry v is |shadow_quadtree(tree, B + {v}, gamma).members|, for every
    point v.

    A new failure at v adds one failed point to each cell on v's root path
    and to no other cell, so the shadow gains the points of the highest cell
    on that path that reaches gamma; the number of them not yet shadowed
    grows toward the root, so it is the largest such count on the path.
    """
    g, nbad, shadowed, bad = _quadtree_failures(tree, B, gamma)
    covered = np.nonzero(shadowed[tree.paths].any(axis=1))[0]
    new = tree.size - tree.count(covered)
    gain = np.where(_at_least(g, nbad + 1, tree.size), new, 0)
    sizes = covered.size + gain[tree.paths].max(axis=1)
    sizes[bad] = covered.size
    return sizes


# ---------------------------------------------------------------------------
# Euclidean ball shadow (exact oracle) and the cone-marking superset
# ---------------------------------------------------------------------------

def shadow_balls_oracle(points, B, alpha) -> ShadowResult:
    """Exact ball shadow: p is shadowed iff some ball b(p, r) holds at least
    an alpha fraction of failed points.  Only radii at data distances matter,
    and ties in distance are grouped so closed-ball counts stay exact."""
    coords = np.asarray(points, dtype=np.float64)
    n = coords.shape[0]
    a = fraction_in(alpha, "alpha", closed=True)
    bad = clean_vertex_set(B, n)
    bad_mark = np.zeros(n, dtype=bool)
    bad_mark[bad] = True
    p, q = a.numerator, a.denominator

    members = []
    for i in range(n):
        d2 = ((coords - coords[i]) ** 2).sum(axis=1)
        order = np.argsort(d2, kind="stable")
        d2s = d2[order]
        cum_bad = np.cumsum(bad_mark[order].astype(np.int64))
        counts = np.arange(1, n + 1, dtype=np.int64)
        # closed balls: a radius group ends where the next distance is larger
        group_end = np.empty(n, dtype=bool)
        group_end[:-1] = d2s[:-1] < d2s[1:]
        group_end[-1] = True
        hit = (q * cum_bad[group_end]) >= (p * counts[group_end])
        if hit.any():
            members.append(i)
    return ShadowResult(a, n, "both", np.asarray(members, dtype=np.int64))


def cone_directions_3d(count: int = 32) -> np.ndarray:
    """Fixed Fibonacci-lattice directions; nearest-direction cells form an
    interior-disjoint cone family with angular diameter below pi/3."""
    i = np.arange(count, dtype=np.float64)
    z = 1.0 - 2.0 * (i + 0.5) / count
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    phi = i * math.pi * (3.0 - math.sqrt(5.0))
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)


_CONES_3D = cone_directions_3d()


def cone_index(vecs: np.ndarray, d: int) -> np.ndarray:
    """Half-open cone assignment for nonzero direction vectors."""
    if d == 2:
        ang = np.arctan2(vecs[:, 1], vecs[:, 0])
        ang = np.mod(ang, 2.0 * math.pi)
        idx = np.floor(ang / (math.pi / 3.0)).astype(np.int64)
        return np.minimum(idx, 5)
    if d == 3:
        norm = np.linalg.norm(vecs, axis=1, keepdims=True)
        unit = vecs / norm
        dots = unit @ _CONES_3D.T
        return np.argmax(dots, axis=1).astype(np.int64)  # argmax ties -> lowest index
    raise ValueError("cone marking supports d = 2 or 3 only")


def cone_count(d: int) -> int:
    if d == 2:
        return 6
    if d == 3:
        return _CONES_3D.shape[0]
    raise ValueError("cone marking supports d = 2 or 3 only")


def cone_mark_unsafe(points, B, alpha) -> np.ndarray:
    """Superset of the ball shadow by cone marking.

    For each failed point and each cone anchored there, the ceil(1/alpha)
    closest surviving non-failed points inside the cone are marked unsafe and
    withdrawn from the working set.  Distance ties break to the lowest id.
    """
    coords = np.asarray(points, dtype=np.float64)
    n, d = coords.shape
    ncones = cone_count(d)
    a = fraction_in(alpha, "alpha", closed=True)
    take = math.ceil(1 / a)
    bad = clean_vertex_set(B, n)
    bad_mark = np.zeros(n, dtype=bool)
    bad_mark[bad] = True

    in_working = np.ones(n, dtype=bool)
    unsafe = np.zeros(n, dtype=bool)
    for qid in bad.tolist():
        unsafe[qid] = True
        in_working[qid] = False
    for qid in bad.tolist():
        cand = np.nonzero(in_working & ~bad_mark)[0]
        if cand.size == 0:
            break
        vecs = coords[cand] - coords[qid]
        cones = cone_index(vecs, d)
        dist2 = (vecs ** 2).sum(axis=1)
        for c in range(ncones):
            sel = cand[cones == c]
            if sel.size == 0:
                continue
            order = np.lexsort((sel, dist2[cones == c]))
            chosen = sel[order[:take]]
            unsafe[chosen] = True
            in_working[chosen] = False
    return np.nonzero(unsafe)[0].astype(np.int64)
