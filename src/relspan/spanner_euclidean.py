"""Higher-dimensional reliable spanners.

Two routes: the ordering-union construction (sort the points by every
ordering in a locality-sensitive family and take the union of 1D reliable
spanners built on the ranks) and the bounded-spread construction (bipartite
expanders across every well-separated pair of quadtree cells plus sibling
cells).  Both work in PointSet's frame and emit Euclidean-weighted graphs.
"""

from __future__ import annotations

import math

import numpy as np

from .expanders import blocks_into_sink
from .graph_core import NORM_MARGIN, EdgeSink, PointSet, WeightedGraph, at_least, fraction_in
from .lso import build_ordering_family, family_size, sort_by_ordering
from .quadtree import build_quadtree, build_wspd, sibling_pairs, wspd_point_pair_counts
from .spanner1d import _check_shift_constants, build_G_theta, shifted_interval_params
from .streams import subseed


# ---------------------------------------------------------------------------
# bounded spread: quadtree + WSPD + expanders
# ---------------------------------------------------------------------------

def build_bounded_spread_spanner(points, epsilon: float, theta, seed: int = 0,
                                 degree_constant_override: int | None = None) -> WeightedGraph:
    """Expander per WSPD pair (separation 6/eps) plus expanders between all
    sibling cells; survives failures outside the (1 - theta/2)-cell-shadow
    with stretch 1 + eps."""
    ps = PointSet(points)
    n = ps.n
    theta = fraction_in(theta, "theta", hi="1/2")
    fraction_in(epsilon, "epsilon")
    tree = build_quadtree(ps.normed)
    separation = 6.0 / epsilon
    pairs = build_wspd(tree, separation)
    xi = theta / 8
    sink = EdgeSink(n)
    ptr, ids = tree.point_ptr, tree.point_ids  # cell c: ids[ptr[c]:ptr[c + 1]]
    size = np.diff(ptr)
    budget = blocks_into_sink(sink, ids, ptr[pairs.u], size[pairs.u], ptr[pairs.v], size[pairs.v],
                              xi, seed, lambda i: ("wspd", i), degree_constant_override)
    parent, ia, ib, left, right = sibling_pairs(tree)
    budget += blocks_into_sink(sink, ids, ptr[left], size[left], ptr[right], size[right], xi, seed,
                               lambda i: ("sib", int(parent[i]), int(ia[i]), int(ib[i])),
                               degree_constant_override)
    u, v = sink.extract()
    counts = wspd_point_pair_counts(tree, pairs)
    meta = {
        "kind": "bounded_spread",
        "n": n,
        "d": ps.d,
        "epsilon": epsilon,
        "theta": str(theta),
        "xi": str(xi),
        "gamma": str(1 - theta / 2),
        "bplus_factor": str(1 + theta),
        "separation": separation,
        "seed": seed,
        "spread": ps.spread,
        "log2_spread": math.log2(ps.spread),
        "wspd_pairs": len(pairs),
        "wspd_max_membership": int(counts.max()),
        "sample_budget": budget,
        "experimental": degree_constant_override is not None,
        "norm_scale": ps.scale,
        "norm_offset": ps.offset.tolist(),
        "norm_margin": NORM_MARGIN,
    }
    return WeightedGraph.from_pairs(n, u, v, positions=ps.coords, meta=meta)


# ---------------------------------------------------------------------------
# ordering-union construction
# ---------------------------------------------------------------------------

def hd_config(n: int, d: int, epsilon: float, theta, variant: str = "improved",
              c2: int = 16) -> dict:
    """Derived parameters of the ordering-union construction.

    The reliability split theta' is computed from the family's *actual* size
    M, so downstream certificates stay self-consistent with the build.
    """
    theta = fraction_in(theta, "theta")
    fraction_in(epsilon, "epsilon")
    at_least(c2, "c2", 16)
    if variant == "improved":
        sigma = epsilon / c2
        rounds = math.ceil(math.log2(max(2.0, math.log2(max(4, n))))) + 1
    elif variant == "simple":
        sigma = epsilon / (c2 * math.log2(max(4, n)))
        rounds = 1
    else:
        raise ValueError("variant must be simple or improved")
    M = family_size(d, sigma)
    theta_prime = theta / (3 * rounds * M) if variant == "improved" else theta / M
    return {
        "variant": variant,
        "sigma": sigma,
        "c2": c2,
        "M": M,
        "rounds": rounds,
        "theta": theta,
        "theta_prime": theta_prime,
    }


def union_over_orderings(normed: np.ndarray, orderings, theta_prime, sub_c: int,
                         sub_mode: str, seed: int, sink,
                         degree_constant_override: int | None = None) -> None:
    """Union of rank-space 1D spanners mapped back to point ids."""
    n = normed.shape[0]
    for o in orderings:
        perm = sort_by_ordering(o, normed)
        g1 = build_G_theta(n, theta_prime, c=sub_c,
                           seed=subseed(seed, "ordering", o.id), mode=sub_mode,
                           degree_constant_override=degree_constant_override)
        sink.add_pairs(perm[g1.u], perm[g1.v])


def build_hd_spanner(points, epsilon: float, theta, variant: str = "improved",
                     seed: int = 0, c2: int = 16, sub_c: int = 512,
                     sub_mode: str = "faithful",
                     degree_constant_override: int | None = None) -> WeightedGraph:
    """Union over a locality-sensitive ordering family of 1D reliable exact
    spanners on the ranks, weighted by Euclidean distance.

    When the per-ordering 1D construction collapses to the clique (its
    near-neighbor radius 3N covers the whole rank line, which at desk scale
    it always does once theta' = theta / (3 rounds M) gets small), every
    ordering contributes the same complete rank graph, so the union is built
    directly as the clique and labeled as such.
    """
    ps = PointSet(points)
    n, d = ps.n, ps.d
    cfg = hd_config(n, d, epsilon, theta, variant, c2)
    _check_shift_constants(sub_c, sub_mode, degree_constant_override, prefix="sub_")
    N1d, _ = shifted_interval_params(cfg["theta_prime"], sub_c)
    sink = EdgeSink(n)
    if 3 * N1d >= n - 1:
        regime = "g1d_clique_union"
        sink.add_band(n - 1)
    else:
        regime = "layered_union"
        family = build_ordering_family(d, cfg["sigma"])
        union_over_orderings(ps.normed, family.orderings, cfg["theta_prime"], sub_c,
                             sub_mode, seed, sink, degree_constant_override)
    u, v = sink.extract()
    meta = {
        "kind": "hd",
        "n": n,
        "d": d,
        "epsilon": epsilon,
        "theta": str(cfg["theta"]),
        "variant": variant,
        "c2": c2,
        "sigma": cfg["sigma"],
        "M": cfg["M"],
        "rounds": cfg["rounds"],
        "theta_prime": str(cfg["theta_prime"]),
        "sub_c": sub_c,
        "sub_mode": sub_mode,
        "regime": regime,
        "bplus_factor": str(1 + cfg["theta"]),
        "seed": seed,
        "experimental": sub_mode == "experimental" or degree_constant_override is not None,
        "norm_scale": ps.scale,
        "norm_offset": ps.offset.tolist(),
        "norm_margin": NORM_MARGIN,
    }
    return WeightedGraph.from_pairs(n, u, v, positions=ps.coords, meta=meta)
