"""The Euclidean stretch audit against the full-Dijkstra audit it replaced.

Certifier._stretch_audit skips the good pairs joined by an edge (stretch
exactly 1) and runs Dijkstra only from sources with a target they are not
joined to.  oracles.stretch_audit_full runs Dijkstra from every good source
and reads every pair; the whole audit tuple (failing pairs kept, failing
count, pairs checked, sampling, max stretch, max hops) must agree in the
all-pairs and the sampled mode.  The guards count the sources Dijkstra is
asked for, so a return to the full audit fails here.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relspan.graph_core as graph_core
from relspan.graph_core import WeightedGraph
from relspan.harness import Certifier, certify
from relspan.spanner_euclidean import build_bounded_spread_spanner
from relspan.streams import substream

from oracles import stretch_audit_full
from test_spanner_euclidean import jittered_grid


def euclidean_graph(points, pairs, epsilon):
    """A graph on the points with the given (u, v) edges, audited at epsilon."""
    u, v = np.asarray(pairs, dtype=np.int64).reshape(-1, 2).T
    return WeightedGraph.from_pairs(len(points), u, v, positions=points,
                                    meta={"kind": "bounded_spread", "epsilon": epsilon})


def random_graph(n, density, epsilon, seed, d=2):
    rng = substream(seed, "stretch-audit-graph")
    points = rng.random((n, d))
    iu, iv = np.triu_indices(n, 1)
    keep = rng.random(iu.size) < density
    return euclidean_graph(points, list(zip(iu[keep], iv[keep])), epsilon)


def both_audits(g, bad, pair_budget, seed):
    bad = np.asarray(sorted(set(bad)), dtype=np.int64)
    good = np.setdiff1d(np.arange(g.n), bad)
    return (Certifier(g)._stretch_audit(bad, good, pair_budget, seed),
            stretch_audit_full(g, bad, good, pair_budget, seed))


@settings(max_examples=300)
@given(n=st.integers(2, 60), density=st.sampled_from([0.0, 0.05, 0.15, 0.3, 0.6, 0.9, 1.0]),
       epsilon=st.sampled_from([0.1, 0.5, 0.99]), d=st.integers(2, 3),
       graph_seed=st.integers(0, 2 ** 32), bad_share=st.floats(0.0, 0.5),
       pair_budget=st.sampled_from([10 ** 6, 1, 17, 200]), seed=st.integers(0, 99))
def test_matches_full_dijkstra_audit(n, density, epsilon, d, graph_seed, bad_share,
                                     pair_budget, seed):
    g = random_graph(n, density, epsilon, graph_seed, d)
    bad = substream(graph_seed, "bad").choice(n, size=int(bad_share * n), replace=False)
    got, expect = both_audits(g, bad, pair_budget, seed)
    assert got == expect


@pytest.mark.parametrize("pair_budget", [10 ** 6, 20_000])
def test_matches_full_audit_over_several_source_blocks(pair_budget):
    # 570 good sources fill three blocks of 256, and far more than the 64
    # kept pairs fail, so the order in which failures are kept is checked
    g = random_graph(600, 0.02, 0.1, seed=3)
    bad = substream(4, "bad").choice(600, size=30, replace=False)
    got, expect = both_audits(g, bad, pair_budget, seed=5)
    assert got == expect
    failures, failing, checked, sampling, _, _ = got
    assert sampling["mode"] == ("all" if pair_budget > 10 ** 5 else "sampled")
    # 20,000 draws over 570 sources hold about 18,800 distinct pairs
    assert len(failures) == 64 and failing > 640 and checked > 18_000


@pytest.fixture
def dijkstra_sources(monkeypatch):
    """The sources of every Dijkstra run the library starts, in call order."""
    runs = []
    original = graph_core._csgraph_dijkstra

    def counted(csgraph, *args, indices=None, **kwargs):
        runs.append(np.atleast_1d(indices).tolist())
        return original(csgraph, *args, indices=indices, **kwargs)
    monkeypatch.setattr(graph_core, "_csgraph_dijkstra", counted)
    return runs


@pytest.mark.parametrize("pair_budget", [10 ** 6, 300])
def test_complete_graph_runs_no_dijkstra(dijkstra_sources, pair_budget):
    g = random_graph(40, 1.0, 0.1, seed=7)
    assert g.edge_count == 40 * 39 // 2
    bad = np.array([3, 9])
    good = np.setdiff1d(np.arange(40), bad)
    audit = Certifier(g)._stretch_audit(bad, good, pair_budget, 1)
    assert dijkstra_sources == []
    assert audit == stretch_audit_full(g, bad, good, pair_budget, 1)
    failures, failing, checked, _, stretch, _ = audit
    # 300 draws over 703 pairs hold 235 distinct ones
    assert (failures, failing, stretch) == ([], 0, 1.0) and checked > 200


def test_built_complete_graph_certifies_without_dijkstra(dijkstra_sources):
    g = build_bounded_spread_spanner(jittered_grid(8, 8, seed=2), 0.5, "1/4", seed=3)
    assert g.edge_count == 64 * 63 // 2
    rep = certify(g, [3, 40])
    assert rep.passed and rep.pairs_checked > 1500 and rep.max_stretch == 1.0
    assert dijkstra_sources == []


def test_one_missing_edge_runs_one_source(dijkstra_sources):
    g = random_graph(30, 1.0, 0.5, seed=8)
    keep = ~((g.u == 4) & (g.v == 21))
    g = euclidean_graph(g.positions, list(zip(g.u[keep], g.v[keep])), 0.5)
    bad = np.array([0, 29])
    Certifier(g)._stretch_audit(bad, np.arange(1, 29), 10 ** 6, 0)
    assert dijkstra_sources == [[4]]


def test_path_with_missing_edge_runs_only_unjoined_sources(dijkstra_sources):
    n, gone = 24, 11  # the edge (11, 12) is missing
    points = np.c_[np.arange(n), substream(9, "path").random(n)]
    g = euclidean_graph(points, [(i, i + 1) for i in range(n - 1) if i != gone], 0.99)
    bad = np.array([5, 17])
    good = np.setdiff1d(np.arange(n), bad)
    edges = set(zip(g.u.tolist(), g.v.tolist()))
    unjoined = sorted({s for s in good.tolist() for t in good.tolist()
                       if s < t and (s, t) not in edges})
    audit = Certifier(g)._stretch_audit(bad, good, 10 ** 6, 0)
    assert [s for run in dijkstra_sources for s in run] == unjoined
    assert audit[1] > 0  # the pairs across the gap are cut off
