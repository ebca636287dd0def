"""Reliable geometric spanners: 1D exact, high-dimensional, bounded-spread.

Builders produce immutable weighted graphs whose survivors stay well
connected outside a small, explicitly computable shadow of any failure set;
the harness certifies that claim under simulated attacks.
"""

__version__ = "0.1.0"

from .graph_core import PointSet, WeightedGraph, load_edge_list, load_points
from .expanders import (build_bipartite_expander, build_reliable_connectivity,
                        build_strong_expander, build_verified_bipartite,
                        verify_expansion_bruteforce, verify_strong_expansion)
from .shadow import (ShadowResult, check_shadow_bounds, cone_mark_unsafe,
                     shadow_1d, shadow_balls_oracle, shadow_quadtree)
from .spanner1d import build_G_theta, build_H
from .quadtree import Quadtree, WspdPairs, build_quadtree, build_wspd
from .lso import OrderingFamily, build_ordering_family, check_lso_property
from .spanner_euclidean import build_bounded_spread_spanner, build_hd_spanner
from .harness import (AttackSpec, Certifier, ReliabilityReport, certify, generate_attack,
                      loss_curve)

__all__ = [
    "PointSet", "WeightedGraph", "load_edge_list", "load_points",
    "build_bipartite_expander", "build_reliable_connectivity",
    "build_strong_expander", "build_verified_bipartite",
    "verify_expansion_bruteforce", "verify_strong_expansion",
    "ShadowResult", "check_shadow_bounds", "cone_mark_unsafe",
    "shadow_1d", "shadow_balls_oracle", "shadow_quadtree",
    "build_G_theta", "build_H",
    "Quadtree", "WspdPairs", "build_quadtree", "build_wspd",
    "OrderingFamily", "build_ordering_family", "check_lso_property",
    "build_bounded_spread_spanner", "build_hd_spanner",
    "AttackSpec", "Certifier", "ReliabilityReport", "certify", "generate_attack",
    "loss_curve",
]
