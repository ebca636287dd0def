"""Differential property tests of the batched monotone search.

one_path_coverage, find_exact_path and monotone_reach_1d against the
pure-Python breadth-first oracles, on random line graphs with n <= 64 and
random failure sets, good sets, hop caps and failure caps.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from relspan.graph_core import WeightedGraph, monotone_reach_1d
from relspan.spanner1d import find_exact_path, one_path_coverage

from oracles import (exact_path_bruteforce, monotone_layers_bruteforce,
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
