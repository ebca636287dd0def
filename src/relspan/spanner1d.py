"""Reliable exact spanners on the integer line.

Two constructions: the block-tree graph (bipartite expanders between
neighboring blocks of a full binary tree, every level) and the shifted-
interval graph (a near-neighbor clique G0 plus expander layers between
consecutive shifted intervals at every resolution).  Both admit monotone
1-paths between survivors outside a small shadow of the failure set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graph_core import (EdgeSink, WeightedGraph, clean_vertex_set, monotone_hops,
                         pow2_at_least, vertex_ids)
from .expanders import blocks_into_sink
from .shadow import as_fraction


# ---------------------------------------------------------------------------
# the block-tree construction
# ---------------------------------------------------------------------------

def _h_certificate(xi: Fraction) -> Fraction | None:
    """Shadow threshold certified by the walk argument: a contamination level
    alpha with (1 - xi) - 2*alpha >= 3/4 survives block crossings, and the
    walk charges contamination to the alpha/3-shadow of the endpoints."""
    ceiling = (Fraction(1, 4) - xi) / 2
    if ceiling <= 0:
        return None
    alpha = min(Fraction(1, 32), ceiling)
    return alpha / 3


def build_H(n: int, xi=Fraction(1, 16), seed: int = 0,
            degree_constant_override: int | None = None) -> WeightedGraph:
    """Block-tree spanner: expanders between all same-level neighboring
    blocks of the full binary tree over [0, pow2(n)), restricted to [0, n)."""
    if n < 2:
        raise ValueError("n must be at least 2")
    xi = as_fraction(xi)
    if not (0 < xi < 1):
        raise ValueError("xi must be in (0, 1)")
    n_padded = pow2_at_least(n)
    h = n_padded.bit_length() - 1
    sink = EdgeSink(n_padded)
    # block (lev, k) joins the k-th and (k+1)-th blocks of size 2^lev
    lev = np.concatenate([np.full((n_padded >> i) - 1, i) for i in range(h)])
    k = np.concatenate([np.arange((n_padded >> i) - 1) for i in range(h)])
    size = 1 << lev
    budget = blocks_into_sink(sink, np.arange(n_padded), k * size, size, (k + 1) * size, size,
                              xi, seed, lambda t: ("h", int(lev[t]), int(k[t])),
                              degree_constant_override)
    u, v = sink.extract()
    keep = np.maximum(u, v) < n
    cert = _h_certificate(xi)
    meta = {
        "kind": "h1d",
        "n": n,
        "n_padded": n_padded,
        "xi": str(xi),
        "seed": seed,
        "sample_budget": budget,
        "experimental": degree_constant_override is not None,
        "cert_alpha": str(cert) if cert is not None else None,
        "bplus_factor": (2 * (1 + math.ceil(1 / cert))) if cert is not None else None,
    }
    return WeightedGraph.from_pairs(n, u[keep], v[keep], line=True, meta=meta)


# ---------------------------------------------------------------------------
# the shifted-interval construction
# ---------------------------------------------------------------------------

def shifted_interval_params(theta, c: int = 512) -> tuple[int, Fraction]:
    """Resolution count N = pow2(c / theta^2) and the layer parameter
    xi = 1 / (32 N)."""
    theta = as_fraction(theta)
    N = pow2_at_least(Fraction(c) / (theta * theta))
    return N, Fraction(1, 32 * N)


def shift_start(i: int, j: int, N: int) -> int:
    """0-based start of the j-th shifted run at resolution i (may be < 0);
    elementwise on integer arrays."""
    step = (1 << i) // N
    return (j - 1) * step - (1 << i)


def build_G_theta(n: int, theta, c: int = 512, seed: int = 0,
                  mode: str = "faithful",
                  degree_constant_override: int | None = None) -> WeightedGraph:
    """Shifted-interval spanner: near-neighbor clique G0 plus bipartite
    expander layers between consecutive shifted intervals at every
    resolution and shift.

    Faithful mode keeps c >= 512; experimental mode allows smaller c and tags
    the result.  When 3N reaches n the construction collapses to the clique
    G0 alone; this is reported, not hidden.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    theta = as_fraction(theta)
    if not (0 < theta < 1):
        raise ValueError("theta must be in (0, 1)")
    if mode not in ("faithful", "experimental"):
        raise ValueError("mode must be faithful or experimental")
    if mode == "faithful" and c < 512:
        raise ValueError("faithful mode requires c >= 512")
    N, xi = shifted_interval_params(theta, c)
    n_padded = pow2_at_least(n)
    h = n_padded.bit_length() - 1
    i0 = N.bit_length() - 1
    warnings = []
    regime = "layered"
    if N >= n:
        warnings.append(f"N={N} >= n={n}: construction degenerates to the near-clique G0")
        regime = "degenerate"
    sink = EdgeSink(n)
    budget = 0
    if 3 * N >= n - 1:
        sink.add_band(n - 1)
        regime = "g0_clique"
        warnings.append(f"3N={3 * N} covers the whole line: graph is the clique via G0")
    else:
        sink.add_band(3 * N)
        # block (i, j, k): [s + k 2^i, s + (k+1) 2^i) and the next such interval,
        # s = shift_start(i, j, N), clipped to [0, n); for k >= n_padded >> i the next is empty
        i, j, k = np.indices((h - i0, N, n_padded >> i0)).reshape(3, -1)
        i, j = i + i0, j + 1
        size = 1 << i
        a0 = shift_start(i, j, N) + k * size
        lo_a, hi_a = np.maximum(a0, 0), np.minimum(a0 + size, n)
        lo_b, hi_b = np.maximum(a0 + size, 0), np.minimum(a0 + 2 * size, n)
        keep = (hi_a - lo_a >= 2) & (hi_b - lo_b >= 2)  # else clipped to < 2 positions
        il, jl, kl = (x[keep].tolist() for x in (i, j, k))
        budget = blocks_into_sink(sink, np.arange(n), lo_a[keep], (hi_a - lo_a)[keep],
                                  lo_b[keep], (hi_b - lo_b)[keep], xi, seed,
                                  lambda t: ("gt", il[t], jl[t], kl[t]),
                                  degree_constant_override)
    u, v = sink.extract()
    cert = 1 - theta / 4
    meta = {
        "kind": "g_theta",
        "n": n,
        "n_padded": n_padded,
        "theta": str(theta),
        "c": c,
        "N": N,
        "xi": str(xi),
        "mode": mode,
        "regime": regime,
        "warnings": warnings,
        "seed": seed,
        "sample_budget": budget,
        "experimental": mode == "experimental" or degree_constant_override is not None,
        "cert_alpha": str(cert),
        "bplus_factor": str(1 + theta),
        "hop_cap": 2 * h,
    }
    return WeightedGraph.from_pairs(n, u, v, line=True, meta=meta)


def g_theta_crossover(theta, c: int = 512) -> int:
    """Smallest n at which the layered part of the construction is
    non-vacuous (below it G0 alone is the whole clique)."""
    N, _ = shifted_interval_params(theta, c)
    return 3 * N + 2


# ---------------------------------------------------------------------------
# exact path extraction
# ---------------------------------------------------------------------------

@dataclass
class PathResult:
    found: bool
    path: list[int]
    hops: int
    length: float


def find_exact_path(g: WeightedGraph, B, s: int, t: int,
                    hop_cap: int | None = None) -> PathResult:
    """Monotone (hence exact-length) path from s to t in g minus B.

    The breadth-first layers from s give t's hop distance; the walk back
    from t takes, at each layer, the lowest-id predecessor on that layer,
    which makes the path deterministic.  Absent is a value, not an error.
    """
    s, t = (int(x) for x in vertex_ids([s, t], g.n))
    if s >= t:
        raise ValueError("require s < t")
    dead = clean_vertex_set(B, g.n)
    if np.isin([s, t], dead).any():
        raise ValueError("endpoint in failure set")
    dist = next(monotone_hops(g, dead, [s], hop_cap))[1][0]
    if dist[t] < 0:
        return PathResult(False, [], 0, math.inf)
    path = [t]
    for r in range(int(dist[t]) - 1, -1, -1):
        preds = g.u[g.v == path[-1]]
        path.append(int(preds[dist[preds] == r].min()))
    path.reverse()
    length = float(sum(path[k + 1] - path[k] for k in range(len(path) - 1)))
    if abs(length - (t - s)) > 1e-9 * max(1.0, t - s):
        raise AssertionError("monotone path failed to telescope")
    return PathResult(True, path, len(path) - 1, length)


def one_path_coverage(g: WeightedGraph, B, good: np.ndarray,
                      hop_cap: int | None = None,
                      max_failures: int = 64) -> tuple[list[tuple[int, int]], int, int]:
    """Check in one walk that every good pair s < t is joined by a monotone
    path in g - B within hop_cap hops.

    Returns (the first max_failures failing pairs, the number of failing
    pairs, max hops over all sources): sources are taken in the order of
    `good`, each source's failing t ascending, and a source's hops are the
    hop count at which its reach last grew.
    """
    good = vertex_ids(good, g.n)
    sources = good[good < good.max()] if good.size else good
    ids = np.arange(g.n)
    is_good = np.isin(ids, good)
    failures: list[tuple[int, int]] = []
    failing = max_hops = 0
    for first, dist in monotone_hops(g, B, sources, hop_cap):
        src = sources[first:first + dist.shape[0]]
        miss = (dist < 0) & is_good & (ids > src[:, None])
        count = int(np.count_nonzero(miss))
        if count and len(failures) < max_failures:
            r, t = np.nonzero(miss)
            room = max_failures - len(failures)
            failures.extend(zip(src[r[:room]].tolist(), t[:room].tolist()))
        failing += count
        max_hops = max(max_hops, int(dist.max()))
    return failures, failing, max_hops
