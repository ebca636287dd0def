"""Differential property tests of the batched monotone search.

one_path_coverage, find_exact_path and monotone_reach_1d against the
pure-Python breadth-first oracles, on random line graphs with n <= 64 and
random failure sets, good sets, hop caps and failure caps; monotone_hops
against the dense full-product kernel, with slabs and source blocks shrunk
so that small graphs cross many of their boundaries, and at the real widths
on n = 600.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from relspan import graph_core
from relspan.graph_core import WeightedGraph, monotone_hops, monotone_reach_1d
from relspan.spanner1d import find_exact_path, one_path_coverage

from oracles import (exact_path_bruteforce, monotone_hops_dense, monotone_layers_bruteforce,
                     monotone_reach_bruteforce, one_path_coverage_bruteforce)

hop_caps = st.none() | st.integers(0, 6)


@st.composite
def line_graphs(draw):
    """(graph, edge triples, failure set) with densities from empty to complete."""
    n = draw(st.integers(2, 64))
    density = draw(st.sampled_from([0.0, 0.05, 0.2, 0.5, 0.9, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    u, v = np.triu_indices(n, k=1)
    keep = rng.random(u.size) < density
    g = WeightedGraph.from_pairs(n, u[keep], v[keep], line=True)
    bad = draw(st.lists(st.integers(0, n - 1), max_size=n // 2, unique=True))
    edges = list(zip(g.u.tolist(), g.v.tolist(), g.w.tolist()))
    return g, edges, bad


@given(line_graphs(), st.data(), hop_caps,
       st.sampled_from([0, 1, 3, 64, 10 ** 6]))
def test_coverage_matches_oracle(case, data, hop_cap, max_failures):
    g, edges, bad = case
    good = data.draw(st.lists(st.integers(0, g.n - 1), unique=True))
    got = one_path_coverage(g, bad, np.asarray(good, dtype=np.int64), hop_cap, max_failures)
    want = one_path_coverage_bruteforce(g.n, edges, bad, good, hop_cap, max_failures)
    assert got == want


@given(line_graphs(), st.data())
def test_reach_matches_oracle_both_directions(case, data):
    g, edges, bad = case
    alive = sorted(set(range(g.n)) - set(bad))
    src = data.draw(st.sampled_from(alive))
    for direction in ("right", "left"):
        got = monotone_reach_1d(g, bad, src, direction).tolist()
        assert got == sorted(monotone_reach_bruteforce(g.n, edges, src, bad, direction))


@given(line_graphs(), st.data(), hop_caps)
def test_exact_path_matches_oracle(case, data, hop_cap):
    g, edges, bad = case
    alive = sorted(set(range(g.n)) - set(bad))
    if len(alive) < 2:
        return
    s, t = sorted(data.draw(st.lists(st.sampled_from(alive), min_size=2, max_size=2,
                                     unique=True)))
    res = find_exact_path(g, bad, s, t, hop_cap)
    layers = monotone_layers_bruteforce(g.n, edges, s, bad, hop_cap)
    hops = next((k for k, layer in enumerate(layers) if t in layer), None)
    assert res.found == (hops is not None)
    assert res.hops == (hops or 0)
    assert res.path == exact_path_bruteforce(g.n, edges, s, t, bad, hop_cap)


def assert_same_hops(g, bad, sources, hop_cap):
    for direction in ("right", "left"):
        got = list(monotone_hops(g, bad, sources, direction, hop_cap))
        want = list(monotone_hops_dense(g, bad, sources, direction, hop_cap))
        assert [first for first, _ in got] == [first for first, _ in want]
        for (_, dist), (_, expect) in zip(got, want):
            assert dist.dtype == expect.dtype
            np.testing.assert_array_equal(dist, expect)


@given(line_graphs(), st.data(), hop_caps, st.sampled_from([1, 3, 8]), st.integers(1, 5))
def test_hops_match_dense_kernel_across_slabs(case, data, hop_cap, slab, block):
    g, _, bad = case
    sources = data.draw(st.lists(st.integers(0, g.n - 1), min_size=1, max_size=3 * g.n))
    with mock.patch.object(graph_core, "_SLAB", slab), \
            mock.patch.object(graph_core, "_SOURCE_BLOCK", block):
        assert_same_hops(g, bad, sources, hop_cap)


@pytest.mark.parametrize("density", [0.05, 0.3])
def test_hops_match_dense_kernel_at_full_width(density):
    n = 600
    rng = np.random.default_rng(int(density * 100))
    u, v = np.triu_indices(n, k=1)
    keep = rng.random(u.size) < density
    g = WeightedGraph.from_pairs(n, u[keep], v[keep], line=True)
    bad = rng.choice(n, size=n // 10, replace=False)
    sources = rng.integers(0, n, size=1500)
    for hop_cap in (None, 1, 2):
        assert_same_hops(g, bad, sources, hop_cap)


def test_hops_make_no_n_by_n_float32_copy():
    n = 2048
    rng = np.random.default_rng(7)
    u, v = np.triu_indices(n, k=1)
    keep = rng.random(u.size) < 0.01
    g = WeightedGraph.from_pairs(n, u[keep], v[keep], line=True)
    sources = np.sort(rng.choice(n, size=64, replace=False))
    tracemalloc.start()
    try:
        for direction in ("right", "left"):
            hops = [dist.max() for _, dist in monotone_hops(g, [], sources, direction)]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert max(hops) >= 2  # products ran
    # the bool step matrix takes n^2 bytes; a float32 copy of it would add 4 n^2
    assert peak < 2 * n * n
