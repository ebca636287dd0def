"""Golden pins of the expander verifiers' results.

Each pin is a VerifyResult.as_dict() as the tuple of its values (passed,
mode, checked, violating side, violating subset, neighborhood size), on a
fixed grid of graphs: passing ones (the complete 8+8, a 10+10 at degree
constant 4 under three xi, a sampled 40+40, strong expanders on 16 and 48
vertices, a reliable-connectivity graph) and failing ones (the 8+8
matching, paths, a random bipartite graph whose sampled check fails on its
right side).  The sampled verifiers run at seeds 1-3.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from relspan.expanders import (build_bipartite_expander, build_reliable_connectivity,
                               build_strong_expander, build_verified_bipartite,
                               verify_connectivity_sampled, verify_expansion_bruteforce,
                               verify_expansion_sampled, verify_strong_expansion,
                               verify_strong_sampled)
from relspan.graph_core import WeightedGraph
from relspan.streams import substream

from oracles import subset_check_oracle

SEEDS = (1, 2, 3)


def path(n: int) -> WeightedGraph:
    return WeightedGraph.from_pairs(n, range(n - 1), range(1, n))


@cache
def bipartite_cases() -> dict:
    """name -> (graph, side partition, xi)."""
    sides8 = (np.arange(8), np.arange(8, 16))
    matching = WeightedGraph.from_pairs(16, range(8), range(8, 16))
    perm = substream(11, "pin-sides")
    shuffled8 = (perm.permutation(8), 8 + perm.permutation(8))
    b10 = build_bipartite_expander(10, 10, "1/4", seed=4, degree_constant_override=4)
    rng = substream(4, "pin-search")  # 9+7 at a density drawn from the stream
    a, b = int(rng.integers(3, 12)), int(rng.integers(3, 12))
    mat = rng.random((a, b)) < rng.uniform(0.4, 0.95)
    u, v = np.nonzero(mat)
    cases = {
        "complete8": (build_bipartite_expander(8, 8, "1/4", seed=0), sides8, "1/4"),
        "matching8": (matching, sides8, "1/4"),
        "matching8-shuffled": (matching, shuffled8, "1/4"),
        "random9+7": (WeightedGraph.from_pairs(a + b, u, v + a),
                      (np.arange(a), np.arange(a, a + b)), "1/4"),
    }
    for xi in ("1/4", "1/2", "3/4"):
        cases[f"b10@{xi}"] = (b10, (np.arange(10), np.arange(10, 20)), xi)
    return cases


@cache
def graph(name: str) -> WeightedGraph:
    if name == "strong16":
        return build_strong_expander(16, 2, "1/2", seed=5)
    if name == "strong48":
        return build_strong_expander(48, 2, "1/2", seed=20)
    if name == "b40":
        return build_bipartite_expander(40, 40, "1/2", seed=2, degree_constant_override=6)
    if name == "reliable80":
        return build_reliable_connectivity(80, "0.4", seed=21)
    return path(int(name.removeprefix("path")))


def values(res) -> tuple:
    return tuple(res.as_dict().values())


EXHAUSTIVE_PINS = {
    "complete8": (True, "exhaustive", 247, None, None, None),
    "matching8": (False, "exhaustive", 247, "L", [0, 1], 2),
    "matching8-shuffled": (False, "exhaustive", 247, "L", [1, 6], 2),
    "random9+7": (False, "exhaustive", 466, "L", [1, 3, 4], 5),
    "b10@1/4": (True, "exhaustive", 968, None, None, None),
    "b10@1/2": (True, "exhaustive", 638, None, None, None),
    "b10@3/4": (True, "exhaustive", 56, None, None, None),
}

SAMPLED_PINS = {
    "complete8/1": (True, "sampled", 100, None, None, None),
    "complete8/2": (True, "sampled", 100, None, None, None),
    "complete8/3": (True, "sampled", 100, None, None, None),
    "matching8/1": (False, "sampled", 1, "L", [4, 6], 2),
    "matching8/2": (False, "sampled", 1, "L", [0, 1, 2, 4], 4),
    "matching8/3": (False, "sampled", 2, "L", [1, 2, 3, 6, 7], 5),
    "matching8-shuffled/1": (False, "sampled", 1, "L", [0, 3], 2),
    "matching8-shuffled/2": (False, "sampled", 1, "L", [1, 2, 3, 6], 4),
    "matching8-shuffled/3": (False, "sampled", 2, "L", [0, 2, 4, 5, 6], 5),
    "random9+7/1": (True, "sampled", 100, None, None, None),
    "random9+7/2": (False, "sampled", 57, "R", [9, 12], 6),
    "random9+7/3": (False, "sampled", 27, "L", [1, 4, 8], 4),
    "b10@1/4/1": (True, "sampled", 100, None, None, None),
    "b10@1/4/2": (True, "sampled", 100, None, None, None),
    "b10@1/4/3": (True, "sampled", 100, None, None, None),
    "b10@1/2/1": (True, "sampled", 100, None, None, None),
    "b10@1/2/2": (True, "sampled", 100, None, None, None),
    "b10@1/2/3": (True, "sampled", 100, None, None, None),
    "b10@3/4/1": (True, "sampled", 100, None, None, None),
    "b10@3/4/2": (True, "sampled", 100, None, None, None),
    "b10@3/4/3": (True, "sampled", 100, None, None, None),
    "b40@1/2/1": (True, "sampled", 100, None, None, None),
    "b40@1/2/2": (True, "sampled", 100, None, None, None),
    "b40@1/2/3": (True, "sampled", 100, None, None, None),
}

STRONG_PINS = {
    "strong16": (True, "exhaustive", 65535, None, None, None),
    "path16": (False, "exhaustive", 65535, None, [0], 1),
    "matching8": (False, "exhaustive", 65535, None, [0], 1),
    "random9+7": (False, "exhaustive", 65535, None, [8], 1),
}

STRONG_SAMPLED_PINS = {
    "strong16/1": (True, "sampled", 60, None, None, None),
    "strong16/2": (True, "sampled", 60, None, None, None),
    "strong16/3": (True, "sampled", 60, None, None, None),
    "strong48/1": (True, "sampled", 60, None, None, None),
    "strong48/2": (True, "sampled", 60, None, None, None),
    "strong48/3": (True, "sampled", 60, None, None, None),
    "path48/1": (False, "sampled", 1, None,
                 [4, 6, 7, 8, 12, 14, 15, 26, 30, 36, 38, 40, 41, 43, 45], 23),
    "path48/2": (False, "sampled", 4, None, [10, 13, 14, 31, 33, 34, 36], 12),
    "path48/3": (False, "sampled", 1, None, [1, 16, 17, 24, 26, 33, 34, 36, 46], 16),
}

CONNECTIVITY_PINS = {
    "reliable80/1": (True, "sampled", 20, None, None, None),
    "reliable80/2": (True, "sampled", 20, None, None, None),
    "reliable80/3": (True, "sampled", 20, None, None, None),
    "path80/1": (False, "sampled", 1, None, [27, 33, 34, 42, 43, 53, 67, 76], 27),
    "path80/2": (False, "sampled", 1, None, [0, 4, 23, 30, 51, 54, 73, 78], 20),
    "path80/3": (False, "sampled", 1, None, [6, 8, 16, 17, 22, 32, 54, 71], 21),
}

VERIFIED_PINS = {
    "12+12/7/None": (1, True, "exhaustive", 4017, None, None, None),
    "10+10/4/4": (1, True, "exhaustive", 968, None, None, None),
    "10+10/4/2": (2, True, "exhaustive", 968, None, None, None),
}


def test_bruteforce_pinned():
    got = {name: values(verify_expansion_bruteforce(g, sides, xi))
           for name, (g, sides, xi) in bipartite_cases().items()}
    assert got == EXHAUSTIVE_PINS


def test_sampled_pinned():
    cases = dict(bipartite_cases())
    cases["b40@1/2"] = (graph("b40"), (np.arange(40), np.arange(40, 80)), "1/2")
    got = {f"{name}/{seed}": values(verify_expansion_sampled(g, sides, xi, 50, seed=seed))
           for name, (g, sides, xi) in cases.items() for seed in SEEDS}
    assert got == SAMPLED_PINS


def test_strong_exhaustive_pinned():
    matching, random = (bipartite_cases()[name][0] for name in ("matching8", "random9+7"))
    got = {name: values(verify_strong_expansion(g, 2, Fraction(1, 2)))
           for name, g in (("strong16", graph("strong16")), ("path16", graph("path16")),
                           ("matching8", matching), ("random9+7", random))}
    assert got == STRONG_PINS


def test_strong_sampled_pinned():
    got = {f"{name}/{seed}": values(verify_strong_sampled(graph(name), 2, "1/2", 60, seed=seed))
           for name in ("strong16", "strong48", "path48") for seed in SEEDS}
    assert got == STRONG_SAMPLED_PINS


def test_connectivity_sampled_pinned():
    got = {f"{name}/{seed}": values(verify_connectivity_sampled(graph(name), "2/5", 20,
                                                                seed=seed))
           for name in ("reliable80", "path80") for seed in SEEDS}
    assert got == CONNECTIVITY_PINS


def test_verified_build_pinned():
    # at degree constant 2 the first attempt fails and the second passes
    got = {}
    for left, right, seed, c in ((12, 12, 7, None), (10, 10, 4, 4), (10, 10, 4, 2)):
        g, attempts, res = build_verified_bipartite(left, right, "1/4", seed, max_attempts=3,
                                                    degree_constant_override=c)
        assert g.meta["verify"] == res.as_dict() and g.meta["attempts"] == attempts
        got[f"{left}+{right}/{seed}/{c}"] = (attempts, *values(res))
    assert got == VERIFIED_PINS


@pytest.mark.parametrize("verify", [
    lambda g, sides: verify_expansion_bruteforce(g, sides, "1/4"),
    lambda g, sides: verify_expansion_sampled(g, sides, "1/4", 5),
], ids=["exhaustive", "sampled"])
@pytest.mark.parametrize("bad", [16, -1])
def test_side_ids_outside_the_graph_raise(verify, bad):
    matching = bipartite_cases()["matching8"][0]
    with pytest.raises(ValueError, match=r"vertex id out of range \[0, 16\)"):
        verify(matching, (np.arange(8), np.r_[9:16, bad]))


@st.composite
def split_graphs(draw):
    """(graph, side partition): a random graph on 2..14 vertices, its ids
    shuffled into two nonempty sides; edges may join a side to itself."""
    n = draw(st.integers(2, 14))
    ids = draw(st.permutations(range(n)))
    cut = draw(st.integers(1, n - 1))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=n * n // 2))
    g = WeightedGraph.from_pairs(n, [a for a, _ in pairs], [b for _, b in pairs])
    return g, (np.array(ids[:cut]), np.array(ids[cut:]))


@given(split_graphs(), st.sampled_from(["1/4", "1/3", "1/2", "2/3", "3/4"]),
       st.integers(0, 3), st.integers(0, 30))
def test_verifiers_match_oracle(case, xi_text, seed, samples):
    g, (left, right) = case
    xi = Fraction(xi_text)
    bip = [(name, side, other, lambda s, k=side.size: s >= xi * k,
            lambda s, nb, k=other.size: not nb > (1 - xi) * k)
           for name, side, other in (("L", left, right), ("R", right, left))]
    # the exhaustive check enumerates L only: R fails exactly when L does
    assert subset_check_oracle(g, bip[1:])["passed"] == subset_check_oracle(g, bip[:1])["passed"]
    assert verify_expansion_bruteforce(g, (left, right), xi_text).as_dict() == \
        subset_check_oracle(g, bip[:1])
    assert verify_expansion_sampled(g, (left, right), xi, samples, seed).as_dict() == \
        subset_check_oracle(g, bip, samples, substream(seed, "verify", "sampled"))
    alpha, beta = 1 + seed, xi
    ids = np.arange(g.n)
    strong = [(None, ids, ids, lambda s: s >= 1,
               lambda s, nb: nb < min((1 - beta) * g.n, alpha * s))]
    assert verify_strong_expansion(g, alpha, beta).as_dict() == subset_check_oracle(g, strong)
    assert verify_strong_sampled(g, alpha, beta, samples, seed).as_dict() == \
        subset_check_oracle(g, strong, samples, substream(seed, "verify", "strong-sampled"))
