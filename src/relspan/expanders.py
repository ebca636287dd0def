"""Seeded randomized expander constructions plus small-instance verification.

Three flavors: the bipartite neighborhood expander used by every spanner
layer, a strong vertex expander, and the reliable-connectivity graph derived
from it.  Sampling constants follow the probabilistic constructions exactly;
when the per-vertex sampling budget already exceeds the opposite side, the
almost-sure limit is emitted directly as the complete (bipartite) graph,
which keeps builds deterministic, within the same edge budget, and with the
expansion property holding with certainty rather than w.h.p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graph_core import EdgeSink, WeightedGraph, largest_component
from .shadow import _INT64_SAFE, as_fraction
from .streams import rekey, subseed, substream

_MAX_DRAWS = 200_000_000  # refuse sample plans beyond this many draws
_BLOCK_BATCH = 1 << 16  # pairs handed to the sink per batch
_BIG_BLOCK = 256  # saturated blocks of this many pairs or more: one add_block each


def bipartite_degree_constant(xi: Fraction) -> int:
    return math.ceil(Fraction(3) / (xi * xi))


def bipartite_sample_plan(a, b, xi: Fraction, c_override: int | None = None) -> dict:
    """Per-vertex sample counts, budget and the saturation decision for sides
    a, b: on Python ints, or elementwise on integer arrays."""
    c = c_override if c_override is not None else bipartite_degree_constant(xi)
    ntot = a + b
    ell_left = c * -(-ntot // a)
    ell_right = c * -(-ntot // b)
    return {
        "c": int(c),
        "ell_left": ell_left,
        "ell_right": ell_right,
        "budget": a * ell_left + b * ell_right,
        "saturated": (ell_left >= b) & (ell_right >= a),
    }


def bipartite_sample_plans(a, b, xi: Fraction, c_override: int | None = None) -> dict:
    """Per-vertex sample counts, budgets and saturation for the blocks with
    sides a[i] x b[i], as arrays.  Exact: int64 while every budget stays
    below 2^62, Python ints (dtype object) above."""
    c = c_override if c_override is not None else bipartite_degree_constant(xi)
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    # a * c * ceil((a + b) / a) < 2 c (a + b), and likewise on the right
    if 4 * c * (int((a + b).max(initial=0)) + 1) >= _INT64_SAFE:
        a, b = a.astype(object), b.astype(object)
    plans = bipartite_sample_plan(a, b, xi, c)
    plans["saturated"] = plans["saturated"].astype(bool)
    return plans


def _batches(counts: np.ndarray):
    """Slices [lo, hi) of consecutive blocks holding at most _BLOCK_BATCH
    items together, or one block that alone holds more."""
    ends = np.cumsum(counts)
    lo = 0
    while lo < ends.size:
        done = int(ends[lo - 1]) if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, done + _BLOCK_BATCH, side="right")))
        yield lo, hi
        lo = hi


def _spread(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The run t of every item of consecutive runs of counts[t] items, and
    its offset in that run."""
    run = np.repeat(np.arange(counts.size), counts)
    return run, np.arange(run.size) - (np.cumsum(counts) - counts)[run]


def blocks_into_sink(sink, ids: np.ndarray, start_l, size_l, start_r, size_r,
                     xi: Fraction, seed: int, labels, c_override: int | None = None) -> int:
    """Emit a bipartite expander per block into an edge sink; returns the
    total budget.  Block i joins ids[start_l[i]:][:size_l[i]] to
    ids[start_r[i]:][:size_r[i]]: completely when saturated, else each left
    vertex draws ell_left right neighbors from the stream (seed, *labels(i),
    "L") and each right one ell_right left ones from (..., "R").  Nothing is
    drawn or marked if a sampled block exceeds _MAX_DRAWS."""
    start_l, size_l, start_r, size_r = (np.asarray(x, dtype=np.int64)
                                        for x in (start_l, size_l, start_r, size_r))
    if size_l.size and min(int(size_l.min()), int(size_r.min())) < 1:
        raise ValueError("expander sides must be nonempty")
    plans = bipartite_sample_plans(size_l, size_r, xi, c_override)
    budget, sat = plans["budget"], plans["saturated"]
    drawn = np.flatnonzero(~sat)
    over = np.flatnonzero(budget[drawn] > _MAX_DRAWS)
    if over.size:
        raise ValueError(f"sampling budget {budget[drawn[over[0]]]} exceeds the draw limit; "
                         "use degree_constant_override for experiments at this size")
    pairs = size_l * size_r
    for i in np.flatnonzero(sat & (pairs >= _BIG_BLOCK)).tolist():
        sink.add_block(ids[start_l[i]:][:size_l[i]], ids[start_r[i]:][:size_r[i]])
    small = np.flatnonzero(sat & (pairs < _BIG_BLOCK))
    for lo, hi in _batches(pairs[small]):
        blk = small[lo:hi]
        run, k = _spread(pairs[blk])  # k-th pair: left member k // b, right k % b
        b = size_r[blk][run]
        sink.add_pairs(ids[start_l[blk][run] + k // b], ids[start_r[blk][run] + k % b])
    ell_l, ell_r = (plans[key][drawn].astype(np.int64) for key in ("ell_left", "ell_right"))
    gen = substream(seed) if drawn.size else None
    for lo, hi in _batches(budget[drawn].astype(np.int64)):
        blk, el, er = drawn[lo:hi], ell_l[lo:hi], ell_r[lo:hi]
        left, right = [], []
        for i, sl, a, sr, b, x, y in np.stack([blk, start_l[blk], size_l[blk], start_r[blk],
                                               size_r[blk], el, er], axis=1).tolist():
            # integers(s, s + b) draws s + integers(0, b): positions in ids
            left.append(rekey(gen, seed, *labels(i), "L").integers(sr, sr + b, size=a * x))
            right.append(rekey(gen, seed, *labels(i), "R").integers(sl, sl + a, size=b * y))
        run, k = _spread(size_l[blk])
        sink.add_pairs(np.repeat(ids[start_l[blk][run] + k], el[run]), ids[np.concatenate(left)])
        run, k = _spread(size_r[blk])
        sink.add_pairs(ids[np.concatenate(right)], np.repeat(ids[start_r[blk][run] + k], er[run]))
    if budget.dtype != object and int(budget.max(initial=0)) * budget.size < _INT64_SAFE:
        return int(budget.sum())
    return sum(budget.tolist())  # Python ints: the int64 sum could wrap


def build_bipartite_expander(left_size: int, right_size: int, xi, seed: int = 0,
                             degree_constant_override: int | None = None) -> WeightedGraph:
    """Bipartite expander on vertices [0, L) and [L, L+R), unit weights.

    Any subset holding at least a xi fraction of one side sees more than a
    (1 - xi) fraction of the other.  Callers re-weight edges by their metric.
    """
    if left_size < 1 or right_size < 1:
        raise ValueError("both sides must be nonempty")
    xi = as_fraction(xi)
    if not (0 < xi < 1):
        raise ValueError("xi must be in (0, 1)")
    n = left_size + right_size
    sink = EdgeSink(n)
    blocks_into_sink(sink, np.arange(n), [0], [left_size], [left_size], [right_size], xi, seed,
                     lambda i: ("bipartite",), degree_constant_override)
    u, v = sink.extract()
    meta = {
        "kind": "bipartite_expander",
        "left_size": left_size,
        "right_size": right_size,
        "xi": str(xi),
        "seed": seed,
        "plan": bipartite_sample_plan(left_size, right_size, xi, degree_constant_override),
        "experimental": degree_constant_override is not None,
    }
    return WeightedGraph.from_pairs(n, u, v, meta=meta)


def strong_degree_constant(alpha: int, beta: Fraction) -> int:
    return 64 * math.ceil(Fraction(alpha) / beta)


def build_strong_expander(n: int, alpha: int, beta, seed: int = 0,
                          degree_constant_override: int | None = None) -> WeightedGraph:
    """Vertex expander: every set X sees at least min((1-beta)n, alpha|X|)
    neighbors.  Each vertex samples its neighbors uniformly with repetition;
    self-loops are dropped."""
    if n < 2:
        raise ValueError("n must be at least 2")
    if int(alpha) != alpha or alpha <= 1:
        raise ValueError("alpha must be an integer > 1")
    beta = as_fraction(beta)
    if not (0 < beta < 1):
        raise ValueError("beta must be in (0, 1)")
    c = degree_constant_override if degree_constant_override is not None \
        else strong_degree_constant(int(alpha), beta)
    meta = {
        "kind": "strong_expander",
        "n": n,
        "alpha": int(alpha),
        "beta": str(beta),
        "c": int(c),
        "seed": seed,
        "budget": int(c) * n,
        "experimental": degree_constant_override is not None,
    }
    if c >= n:
        meta["saturated"] = True
        sink = EdgeSink(n)
        sink.add_band(n - 1)
        u, v = sink.extract()
        return WeightedGraph.from_pairs(n, u, v, meta=meta)
    if c * n > _MAX_DRAWS:
        raise ValueError("sampling budget exceeds the draw limit")
    meta["saturated"] = False
    rng = substream(seed, "strong")
    targets = rng.integers(0, n, size=n * c)
    sources = np.repeat(np.arange(n, dtype=np.int64), c)
    return WeightedGraph.from_pairs(n, sources, targets, meta=meta)


def reliable_connectivity_params(theta) -> tuple[int, Fraction]:
    theta = as_fraction(theta)
    alpha = math.ceil(Fraction(100) / theta)
    beta = theta / alpha
    return alpha, beta


def build_reliable_connectivity(n: int, theta, seed: int = 0,
                                degree_constant_override: int | None = None) -> WeightedGraph:
    """Graph such that deleting any B leaves a connected component of size
    at least n - (1 + theta)|B|."""
    theta = as_fraction(theta)
    if not (0 < theta < Fraction(1, 2)):
        raise ValueError("theta must be in (0, 1/2)")
    alpha, beta = reliable_connectivity_params(theta)
    g = build_strong_expander(n, alpha, beta, seed=seed,
                              degree_constant_override=degree_constant_override)
    meta = dict(g.meta)
    meta.update({"kind": "reliable_connectivity", "theta": str(theta)})
    return WeightedGraph(g.n, g.u, g.v, g.w, meta=meta)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

@dataclass
class VerifyResult:
    passed: bool
    mode: str
    checked: int
    violating_side: str | None = None
    violating_subset: list[int] | None = None
    neighborhood_size: int | None = None

    def as_dict(self) -> dict:
        return {
            "passed": self.passed,
            "mode": self.mode,
            "checked": self.checked,
            "violating_side": self.violating_side,
            "violating_subset": self.violating_subset,
            "neighborhood_size": self.neighborhood_size,
        }


def _neighbor_masks(g: WeightedGraph, side_ids: np.ndarray, other_ids: np.ndarray) -> list[int]:
    pos_other = {int(v): i for i, v in enumerate(other_ids)}
    masks = [0] * len(side_ids)
    pos_side = {int(v): i for i, v in enumerate(side_ids)}
    for a, b in zip(g.u.tolist(), g.v.tolist()):
        if a in pos_side and b in pos_other:
            masks[pos_side[a]] |= 1 << pos_other[b]
        if b in pos_side and a in pos_other:
            masks[pos_side[b]] |= 1 << pos_other[a]
    return masks


def _union_dp(masks: list[int]) -> np.ndarray:
    """N_or[m] = union of neighbor masks over the bits of m, by doubling."""
    k = len(masks)
    out = np.zeros(1 << k, dtype=np.uint64)
    for i in range(k):
        block = 1 << i
        out[block:2 * block] = out[:block] | np.uint64(masks[i])
    return out


def _popcount(arr: np.ndarray) -> np.ndarray:
    return np.bitwise_count(arr.astype(np.uint64)).astype(np.int64)


def _smallest_violation(viol_masks: np.ndarray) -> int:
    pops = _popcount(viol_masks)
    best = np.lexsort((viol_masks, pops))[0]
    return int(viol_masks[best])


def verify_expansion_bruteforce(g: WeightedGraph, side_partition, xi) -> VerifyResult:
    """Exhaustively check both directions of the bipartite expansion property.

    Enumerates every X in L with |X| >= xi|L| (and symmetrically in R) via a
    subset-union DP; reports the smallest violating subset if any.
    """
    left_ids, right_ids = (np.asarray(s, dtype=np.int64) for s in side_partition)
    xi = as_fraction(xi)
    if max(len(left_ids), len(right_ids)) > 22:
        raise ValueError("enumeration budget exceeded")
    p, q = xi.numerator, xi.denominator
    checked = 0
    for name, side, other in (("L", left_ids, right_ids), ("R", right_ids, left_ids)):
        masks = _neighbor_masks(g, side, other)
        union = _union_dp(masks)
        sizes = _popcount(np.arange(1 << len(side), dtype=np.uint64))
        nsizes = _popcount(union)
        big_enough = q * sizes >= p * len(side)
        # property demands |N(X)| strictly above (1 - xi)|other|
        bad = big_enough & (q * nsizes <= (q - p) * len(other))
        bad[0] = False
        checked += int(big_enough.sum())
        if bad.any():
            mask = _smallest_violation(np.nonzero(bad)[0].astype(np.uint64))
            subset = [int(side[i]) for i in range(len(side)) if mask >> i & 1]
            nb = int(nsizes[mask])
            return VerifyResult(False, "exhaustive", checked, name, subset, nb)
    return VerifyResult(True, "exhaustive", checked)


def verify_expansion_sampled(g: WeightedGraph, side_partition, xi, samples: int,
                             seed: int = 0) -> VerifyResult:
    """Spot-check the expansion property on random qualifying subsets."""
    left_ids, right_ids = (np.asarray(s, dtype=np.int64) for s in side_partition)
    xi = as_fraction(xi)
    rng = substream(seed, "verify", "sampled")
    checked = 0
    for name, side, other in (("L", left_ids, right_ids), ("R", right_ids, left_ids)):
        masks = _neighbor_masks(g, side, other)
        min_size = max(1, math.ceil(xi * len(side)))
        thresh = (1 - xi) * len(other)
        for _ in range(samples):
            size = int(rng.integers(min_size, len(side) + 1))
            pick = rng.choice(len(side), size=size, replace=False)
            union = 0
            for i in pick:
                union |= masks[int(i)]
            checked += 1
            if not (union.bit_count() > thresh):
                subset = sorted(int(side[int(i)]) for i in pick)
                return VerifyResult(False, "sampled", checked, name, subset, union.bit_count())
    return VerifyResult(True, "sampled", checked)


def verify_strong_expansion(g: WeightedGraph, alpha: int, beta) -> VerifyResult:
    """Exhaustive check of |N(X)| >= min((1-beta)n, alpha|X|) over all X."""
    beta = as_fraction(beta)
    n = g.n
    if n > 22:
        raise ValueError("enumeration budget exceeded")
    ids = np.arange(n, dtype=np.int64)
    masks = _neighbor_masks(g, ids, ids)
    union = _union_dp(masks)
    sizes = _popcount(np.arange(1 << n, dtype=np.uint64))
    nsizes = _popcount(union)
    p, q = beta.numerator, beta.denominator
    # violation: |N| < alpha|X| and q|N| < (q - p)n
    bad = (nsizes < alpha * sizes) & (q * nsizes < (q - p) * n)
    bad[0] = False
    if bad.any():
        mask = _smallest_violation(np.nonzero(bad)[0].astype(np.uint64))
        subset = [i for i in range(n) if mask >> i & 1]
        return VerifyResult(False, "exhaustive", (1 << n) - 1, None, subset,
                            int(nsizes[mask]))
    return VerifyResult(True, "exhaustive", (1 << n) - 1)


def verify_strong_sampled(g: WeightedGraph, alpha: int, beta, samples: int,
                          seed: int = 0) -> VerifyResult:
    """Spot-check |N(X)| >= min((1-beta)n, alpha|X|) on random subsets."""
    beta = as_fraction(beta)
    n = g.n
    ids = np.arange(n, dtype=np.int64)
    masks = _neighbor_masks(g, ids, ids)
    p, q = beta.numerator, beta.denominator
    rng = substream(seed, "verify", "strong-sampled")
    for checked in range(1, samples + 1):
        size = int(rng.integers(1, n + 1))
        pick = rng.choice(n, size=size, replace=False)
        union = 0
        for i in pick:
            union |= masks[int(i)]
        nb = union.bit_count()
        if nb < alpha * size and q * nb < (q - p) * n:
            return VerifyResult(False, "sampled", checked, None,
                                sorted(int(v) for v in pick), nb)
    return VerifyResult(True, "sampled", samples)


def verify_connectivity_sampled(g: WeightedGraph, theta, samples: int,
                                seed: int = 0, k: int | None = None) -> VerifyResult:
    """Random deletion trials: the largest surviving component must miss at
    most (1+theta)|B| vertices."""
    theta = as_fraction(theta)
    n = g.n
    k = k if k is not None else max(1, n // 10)
    rng = substream(seed, "verify", "reliable-sampled")
    for checked in range(1, samples + 1):
        bad = rng.choice(n, size=k, replace=False)
        largest = largest_component(g, bad).size
        if largest < n - (1 + theta) * k:
            return VerifyResult(False, "sampled", checked, None,
                                sorted(int(v) for v in bad), largest)
    return VerifyResult(True, "sampled", samples)


def build_verified_bipartite(left_size: int, right_size: int, xi, seed: int = 0,
                             max_attempts: int = 20,
                             degree_constant_override: int | None = None
                             ) -> tuple[WeightedGraph, int, VerifyResult]:
    """Resample with attempt-derived seeds until exhaustive verification passes.

    Attempt 1 uses the caller's seed unchanged, so a verified build equals
    the plain build when the first attempt already passes.
    """
    xi = as_fraction(xi)
    last = None
    for attempt in range(1, max_attempts + 1):
        s = seed if attempt == 1 else subseed(seed, "attempt", attempt)
        g = build_bipartite_expander(left_size, right_size, xi, s,
                                     degree_constant_override=degree_constant_override)
        sides = (np.arange(left_size), np.arange(left_size, left_size + right_size))
        res = verify_expansion_bruteforce(g, sides, xi)
        g.meta["verify"] = res.as_dict()
        g.meta["attempts"] = attempt
        if res.passed:
            return g, attempt, res
        last = (g, attempt, res)
    return last
