"""The package's public surface: relspan.__all__ lists each public name
once, every listed name resolves, and names moved out of the library stay
out of it."""

import relspan
import relspan.graph_core
import relspan.harness
import relspan.quadtree
import relspan.spanner1d
import relspan.spanner_euclidean

# test-only helpers (they live in tests/), routines the certification
# context replaced, the object form of the quadtree and the input checks
# that normalize_unit's point-set contract replaced
REMOVED = {
    relspan: ["BlockTree", "CanonicalWalk", "canonical_walk"],
    relspan.graph_core: ["shortest_path_matrix"],
    relspan.spanner1d: ["BlockTree", "CanonicalWalk", "canonical_walk", "coverage_totals"],
    relspan.spanner_euclidean: ["hd_rank_permutations", "_distinct_points"],
    relspan.harness: ["_greedy_objective", "_bplus_1d", "_bplus_quadtree", "_bplus_hd",
                      "_certify_connectivity"],
    relspan.quadtree: ["QuadNode", "TreeArrays", "max_log2_spread"],
}


def test_all_names_resolve():
    missing = [name for name in relspan.__all__ if not hasattr(relspan, name)]
    assert not missing


def test_no_name_listed_twice():
    assert len(relspan.__all__) == len(set(relspan.__all__))


def test_removed_names_are_gone():
    for module, names in REMOVED.items():
        assert [name for name in names if hasattr(module, name)] == [], module.__name__
    assert not set(REMOVED[relspan]) & set(relspan.__all__)
