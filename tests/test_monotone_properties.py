"""Differential property tests of the batched monotone search.

one_path_coverage against the pure-Python breadth-first oracle, on random
line graphs with n <= 64 and random failure sets, good sets, hop caps and
failure caps; monotone_unreached against the unreached sets and hop counts
read off the dense full-product kernel, with slabs and source blocks shrunk
so that small graphs cross many of their boundaries, and at the real widths
on n = 600.  The dense kernel's path oracles, find_exact_path and
monotone_reach_1d in both directions, are checked against the
breadth-first oracles too.  The kernel's memory is bounded by tracemalloc.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from relspan import graph_core
from relspan.graph_core import WeightedGraph, monotone_unreached
from relspan.harness import AttackSpec, generate_attack
from relspan.spanner1d import build_G_theta, one_path_coverage

from oracles import (exact_path_bruteforce, find_exact_path, find_exact_paths,
                     monotone_layers_bruteforce, monotone_reach_1d, monotone_reach_bruteforce,
                     monotone_unreached_dense, one_path_coverage_bruteforce)

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
    pair = st.lists(st.sampled_from(alive), min_size=2, max_size=2, unique=True).map(sorted)
    pairs = data.draw(st.lists(pair, min_size=1, max_size=4))
    for (s, t), res in zip(pairs, find_exact_paths(g, bad, pairs, hop_cap)):
        assert res == find_exact_path(g, bad, s, t, hop_cap)
        layers = monotone_layers_bruteforce(g.n, edges, s, bad, hop_cap)
        hops = next((k for k, layer in enumerate(layers) if t in layer), None)
        assert res.found == (hops is not None)
        assert res.hops == (hops or 0)
        assert res.path == exact_path_bruteforce(g.n, edges, s, t, bad, hop_cap)


def assert_same_unreached(g, bad, sources, hop_cap):
    got = list(monotone_unreached(g, bad, sources, hop_cap))
    want = list(monotone_unreached_dense(g, bad, sources, hop_cap))
    assert [first for first, _, _ in got] == [first for first, _, _ in want]
    for (_, unreached, hops), (_, expect, expect_hops) in zip(got, want):
        assert unreached.dtype == bool
        np.testing.assert_array_equal(unreached, expect)
        assert hops == expect_hops


def assert_same_left_reach(g, bad, sources):
    edges = list(zip(g.u.tolist(), g.v.tolist(), g.w.tolist()))
    for src in sorted(set(sources) - set(np.asarray(bad).tolist())):
        got = monotone_reach_1d(g, bad, src, "left").tolist()
        assert got == sorted(monotone_reach_bruteforce(g.n, edges, src, bad, "left"))


@given(line_graphs(), st.data(), hop_caps, st.sampled_from([1, 3, 8]), st.integers(1, 5))
def test_hops_match_dense_kernel_across_slabs(case, data, hop_cap, slab, block):
    g, _, bad = case
    sources = data.draw(st.lists(st.integers(0, g.n - 1), min_size=1, max_size=3 * g.n))
    with mock.patch.object(graph_core, "_SLAB", slab), \
            mock.patch.object(graph_core, "_SOURCE_BLOCK", block):
        assert_same_unreached(g, bad, sources, hop_cap)
        assert_same_left_reach(g, bad, sources)


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
        assert_same_unreached(g, bad, sources, hop_cap)
    assert_same_left_reach(g, bad, sources[:20])


def traced(run):
    """run()'s result and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        return run(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_hops_make_no_n_by_n_float32_copy():
    n = 2048
    rng = np.random.default_rng(7)
    u, v = np.triu_indices(n, k=1)
    keep = rng.random(u.size) < 0.01
    g = WeightedGraph.from_pairs(n, u[keep], v[keep], line=True)
    sources = np.sort(rng.choice(n, size=64, replace=False))
    hops, peak = traced(lambda: [h for _, _, h in monotone_unreached(g, [], sources)])
    assert max(hops) >= 2  # products ran
    # the bool step matrix takes n^2 bytes; a float32 copy of it would add 4 n^2
    assert peak < 2 * n * n


@pytest.mark.parametrize("k", [0, 64])
def test_full_source_block_stays_under_ten_n_squared(k):
    # the line benchmark graph: one block of 1023 sources, every good pair
    n = 1024
    g = build_G_theta(n, "1/2", c=8, seed=7, mode="experimental", degree_constant_override=1)
    bad = generate_attack(AttackSpec("random", k, seed=8), g)
    good = np.setdiff1d(np.arange(n), bad)
    (_, _, max_hops), peak = traced(lambda: one_path_coverage(g, bad, good, g.meta["hop_cap"]))
    assert max_hops >= 2  # products ran
    # the step matrix, the float32 products and the bool reach masks of one
    # block; int32 hop distances would add another 4 n^2
    assert peak < 10 * n * n
