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
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from .graph_core import (_INT64_SAFE, EdgeSink, WeightedGraph, as_fraction, at_least,
                         fraction_in, largest_component, vertex_ids)
from .streams import rekey, subseed, substream

_MAX_DRAWS = 200_000_000  # refuse sample plans beyond this many draws
_BLOCK_BATCH = 1 << 16  # pairs handed to the sink per batch
_BIG_BLOCK = 256  # saturated blocks of this many pairs or more: one add_block each
_MAX_ENUM = 22  # exhaustive checks enumerate 2^|side| subsets of sides up to this size
_MASK_BITS = 64  # and hold each neighborhood as a uint64 mask over the other side


def bipartite_degree_constant(xi: Fraction) -> int:
    return math.ceil(Fraction(3) / (xi * xi))


def bipartite_sample_plans(a, b, xi: Fraction, c_override: int | None = None) -> dict:
    """Per-vertex sample counts, budgets and saturation for the blocks with
    sides a[i] x b[i], as arrays.  Exact: int64 while every budget stays
    below 2^62, Python ints (dtype object) above."""
    c = (at_least(c_override, "degree_constant_override", 1) if c_override is not None
         else bipartite_degree_constant(xi))
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    # a * c * ceil((a + b) / a) < 2 c (a + b), and likewise on the right
    if 4 * c * (int((a + b).max(initial=0)) + 1) >= _INT64_SAFE:
        a, b = a.astype(object), b.astype(object)
    ntot = a + b
    ell_left = c * -(-ntot // a)
    ell_right = c * -(-ntot // b)
    return {
        "c": c,
        "ell_left": ell_left,
        "ell_right": ell_right,
        "budget": a * ell_left + b * ell_right,
        "saturated": ((ell_left >= b) & (ell_right >= a)).astype(bool),
    }


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
    at_least(left_size, "left_size", 1)
    at_least(right_size, "right_size", 1)
    xi = fraction_in(xi, "xi")
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
        "plan": {key: val if key == "c" else val.tolist()[0] for key, val in
                 bipartite_sample_plans([left_size], [right_size], xi,
                                        degree_constant_override).items()},
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
    at_least(n, "n", 2)
    alpha = at_least(alpha, "alpha", 2)
    beta = fraction_in(beta, "beta")
    c = (at_least(degree_constant_override, "degree_constant_override", 1)
         if degree_constant_override is not None else strong_degree_constant(alpha, beta))
    meta = {
        "kind": "strong_expander",
        "n": n,
        "alpha": alpha,
        "beta": str(beta),
        "c": c,
        "seed": seed,
        "budget": c * n,
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
    theta = fraction_in(theta, "theta", hi="1/2")
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
        return asdict(self)


# A subset check runs over directions (name, side, other, min_size, violates):
# a subset X of the ids `side` is admissible when |X| >= min_size, and fails
# when violates(|X|, |N(X)|), with N(X) its neighbors among the ids `other`.
# violates takes ints or int arrays alike.  Directions run in order, and the
# first failure names its direction.

def _incidence(g: WeightedGraph, side: np.ndarray, other: np.ndarray) -> tuple:
    """(ptr, cols): the neighbors of side[i] among other, as positions in
    other, are cols[ptr[i]:ptr[i + 1]]."""
    side, other = vertex_ids(side, g.n), vertex_ids(other, g.n)
    pos_side, pos_other = np.full(g.n, -1), np.full(g.n, -1)
    pos_side[side] = np.arange(side.size)
    pos_other[other] = np.arange(other.size)
    rows = pos_side[np.concatenate([g.u, g.v])]
    cols = pos_other[np.concatenate([g.v, g.u])]
    keep = (rows >= 0) & (cols >= 0)
    rows, cols = rows[keep], cols[keep]
    ptr = np.zeros(side.size + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=side.size), out=ptr[1:])
    return ptr, cols[np.argsort(rows, kind="stable")]


def _exhaustive(g: WeightedGraph, directions) -> VerifyResult:
    """Every admissible subset of every side, by a subset-union DP; checked
    counts them.  A failure reports the smallest violating subset: fewest
    members, then the lowest bitmask over side positions."""
    if any(side.size > _MAX_ENUM or other.size > _MASK_BITS for _, side, other, *_ in directions):
        raise ValueError("enumeration budget exceeded")
    incidences = [_incidence(g, side, other) for _, side, other, *_ in directions]
    checked = 0
    for (name, side, _, min_size, violates), (ptr, cols) in zip(directions, incidences):
        masks = np.zeros(side.size, dtype=np.uint64)
        np.bitwise_or.at(masks, np.repeat(np.arange(side.size), np.diff(ptr)),
                         np.uint64(1) << cols.astype(np.uint64))
        union = np.zeros(1 << side.size, dtype=np.uint64)  # N(X) of the bitmask X
        for i in range(side.size):
            union[1 << i:2 << i] = union[:1 << i] | masks[i]
        sizes = np.bitwise_count(np.arange(union.size, dtype=np.uint64)).astype(np.int64)
        nsizes = np.bitwise_count(union).astype(np.int64)
        admissible = sizes >= min_size
        bad = admissible & violates(sizes, nsizes)
        bad[0] = False
        checked += int(admissible.sum())
        if bad.any():
            worst = np.flatnonzero(bad)
            mask = int(worst[np.argmin(sizes[worst])])
            subset = side[np.flatnonzero(mask >> np.arange(side.size) & 1)].tolist()
            return VerifyResult(False, "exhaustive", checked, name, subset, int(nsizes[mask]))
    return VerifyResult(True, "exhaustive", checked)


def _sampled(g: WeightedGraph, directions, samples: int, rng) -> VerifyResult:
    """samples random admissible subsets of every side, each of a size drawn
    uniformly from [max(1, min_size), |side|], then drawn uniformly among
    the subsets of that size; checked counts the draws."""
    incidences = [_incidence(g, side, other) for _, side, other, *_ in directions]
    checked = 0
    for (name, side, other, min_size, violates), (ptr, cols) in zip(directions, incidences):
        seen = np.zeros(other.size, dtype=bool)
        for _ in range(samples):
            size = int(rng.integers(max(1, min_size), side.size + 1))
            pick = rng.choice(side.size, size=size, replace=False)
            run, k = _spread(ptr[pick + 1] - ptr[pick])
            seen[:] = False
            seen[cols[ptr[pick][run] + k]] = True
            nb = int(np.count_nonzero(seen))
            checked += 1
            if violates(size, nb):
                subset = sorted(side[pick].tolist())
                return VerifyResult(False, "sampled", checked, name, subset, nb)
    return VerifyResult(True, "sampled", checked)


def _bipartite_directions(side_partition, xi) -> list:
    """Both directions of the bipartite property: every X in one side with
    |X| >= xi|side| sees more than (1 - xi)|other|, for xi in (0, 1) and
    nonempty, disjoint sides."""
    left, right = (np.asarray(s, dtype=np.int64) for s in side_partition)
    if not (left.size and right.size) or np.intersect1d(left, right).size:
        raise ValueError("bipartite sides must be nonempty and disjoint")
    xi = fraction_in(xi, "xi")
    p, q = xi.numerator, xi.denominator
    return [(name, side, other, -(-p * side.size // q),
             lambda size, nb, limit=(q - p) * other.size: q * nb <= limit)
            for name, side, other in (("L", left, right), ("R", right, left))]


def _strong_directions(n: int, alpha: int, beta) -> list:
    """|N(X)| >= min((1 - beta)n, alpha|X|) over every nonempty X."""
    beta = fraction_in(beta, "beta")
    p, q = beta.numerator, beta.denominator
    ids = np.arange(n, dtype=np.int64)
    return [(None, ids, ids, 1,
             lambda size, nb: (nb < alpha * size) & (q * nb < (q - p) * n))]


def verify_expansion_bruteforce(g: WeightedGraph, side_partition, xi) -> VerifyResult:
    """Exhaustively check the bipartite expansion property, both directions.

    Enumerates every X in L with |X| >= xi|L| via a subset-union DP and
    reports the smallest violating subset if any; the enumeration budget
    takes L up to 22 vertices and R up to 64.  Side R needs no pass of its
    own, since it fails exactly when L does: if X in L has |X| >= xi|L| and
    |N(X)| <= (1 - xi)|R|, then Y = R minus N(X) has |Y| >= xi|R|, and no
    member of Y has a neighbor in X, so |N(Y)| <= |L| - |X| <= (1 - xi)|L|;
    the converse is the same argument with the sides swapped.  Y is nonempty
    because xi > 0 and R is nonempty, and Y misses X's neighbors only because
    the sides are disjoint.
    """
    return _exhaustive(g, _bipartite_directions(side_partition, xi)[:1])


def verify_expansion_sampled(g: WeightedGraph, side_partition, xi, samples: int,
                             seed: int = 0) -> VerifyResult:
    """Spot-check the expansion property on random qualifying subsets."""
    return _sampled(g, _bipartite_directions(side_partition, xi), samples,
                    substream(seed, "verify", "sampled"))


def verify_strong_expansion(g: WeightedGraph, alpha: int, beta) -> VerifyResult:
    """Exhaustive check of |N(X)| >= min((1-beta)n, alpha|X|) over all X."""
    return _exhaustive(g, _strong_directions(g.n, alpha, beta))


def verify_strong_sampled(g: WeightedGraph, alpha: int, beta, samples: int,
                          seed: int = 0) -> VerifyResult:
    """Spot-check |N(X)| >= min((1-beta)n, alpha|X|) on random subsets."""
    return _sampled(g, _strong_directions(g.n, alpha, beta), samples,
                    substream(seed, "verify", "strong-sampled"))


def verify_connectivity_sampled(g: WeightedGraph, theta, samples: int,
                                seed: int = 0) -> VerifyResult:
    """Random deletion trials, each failing k = max(1, n // 10) uniform
    vertices: the largest surviving component must miss at most
    (1+theta)|B| vertices."""
    theta = fraction_in(theta, "theta", hi="1/2")
    n = g.n
    k = max(1, n // 10)
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
    the plain build when the first attempt already passes.  Returns the last
    attempt when none passes.
    """
    at_least(max_attempts, "max_attempts", 1)
    for attempt in range(1, max_attempts + 1):
        s = seed if attempt == 1 else subseed(seed, "attempt", attempt)
        g = build_bipartite_expander(left_size, right_size, xi, s,
                                     degree_constant_override=degree_constant_override)
        sides = (np.arange(left_size), np.arange(left_size, left_size + right_size))
        res = verify_expansion_bruteforce(g, sides, xi)
        g.meta["verify"] = res.as_dict()
        g.meta["attempts"] = attempt
        if res.passed:
            break
    return g, attempt, res
