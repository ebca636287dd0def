"""Differential property tests of edge canonicalization.

WeightedGraph.from_pairs, and the EdgeSink -> from_pairs path every builder
takes, against canonical_edges_bruteforce, on n from 1 to 40 with empty
inputs, self-loops, both orientations and duplicates.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from relspan.expanders import build_strong_expander
from relspan.graph_core import EdgeSink, WeightedGraph

from oracles import canonical_edges_bruteforce


def edge_list(g):
    return list(zip(g.u.tolist(), g.v.tolist()))


def id_array(ids):
    return np.asarray(ids, dtype=np.int64)


@st.composite
def pair_multisets(draw):
    """(n, pairs): random pairs plus reversed and repeated copies of some."""
    n = draw(st.integers(1, 40))
    ids = st.integers(0, n - 1)
    base = draw(st.lists(st.tuples(ids, ids), max_size=60))
    again = draw(st.lists(st.sampled_from(base), max_size=20)) if base else []
    pairs = base + [(b, a) for a, b in again] + again
    return n, draw(st.permutations(pairs))


@st.composite
def sink_calls(draw):
    """(n, calls): a random sequence of add_pairs, add_block and add_band."""
    n = draw(st.integers(1, 40))
    ids = st.integers(0, n - 1)
    call = st.one_of(
        st.tuples(st.just("pairs"), st.lists(st.tuples(ids, ids), max_size=30)),
        st.tuples(st.just("block"), st.tuples(st.lists(ids, max_size=12),
                                              st.lists(ids, max_size=12))),
        st.tuples(st.just("band"), st.integers(0, n + 1)),
    )
    return n, draw(st.lists(call, max_size=8))


@given(pair_multisets())
def test_from_pairs_matches_oracle(case):
    n, pairs = case
    g = WeightedGraph.from_pairs(n, id_array([a for a, _ in pairs]),
                                 id_array([b for _, b in pairs]), line=True)
    assert edge_list(g) == canonical_edges_bruteforce(pairs)
    assert g.w.tolist() == [float(b - a) for a, b in edge_list(g)]
    g.validate()


@given(sink_calls())
def test_sink_then_from_pairs_matches_oracle(case):
    n, calls = case
    sink = EdgeSink(n)
    added = []
    for kind, arg in calls:
        if kind == "pairs":
            sink.add_pairs(id_array([a for a, _ in arg]), id_array([b for _, b in arg]))
            added += arg
        elif kind == "block":
            left, right = arg
            sink.add_block(id_array(left), id_array(right))
            added += [(a, b) for a in left for b in right]
        else:
            sink.add_band(arg)
            added += [(a, b) for a in range(n) for b in range(a + 1, min(n, a + 1 + arg))]
    g = WeightedGraph.from_pairs(n, *sink.extract())
    assert edge_list(g) == canonical_edges_bruteforce(added)
    g.validate()


@given(st.integers(2, 40), st.integers(0, 2 ** 32 - 1))
def test_saturated_strong_expander_is_complete(n, seed):
    g = build_strong_expander(n, 2, "1/2", seed=seed)
    assert g.meta["saturated"]
    assert edge_list(g) == canonical_edges_bruteforce(
        (a, b) for a in range(n) for b in range(n))
    g.validate()
