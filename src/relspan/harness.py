"""Attack generation and end-to-end certification of built spanners.

A Certifier is the certification context of one graph.  The construction
fixes the rule for the harmed superset B+ (the 1D alpha-shadow, the
gamma-quadtree shadow, the ordering-union rank shadow, or all vertices
outside the largest surviving component); only B changes from call to call.
So the context dispatches on the kind once, to that rule, the greedy-shadow
objective and the pair audit (monotone 1-path coverage on the line,
Dijkstra stretch in Euclidean graphs), and builds what depends only on the
graph (normalized positions, quadtree, hd_config, rank permutations, edge
keys) on first use, so a call that needs none of it builds none of it.
Euclidean edges weigh their length, so the stretch audit counts a pair
joined by an edge at stretch 1 and runs Dijkstra only for the rest.  certify()
and generate_attack() wrap a fresh context; loss_curve() uses one for all
its trials.  The minimal harmed set is NP-hard flavored, so a greedy
vertex-cover estimate of the observed loss is reported alongside the
constructive certificate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .graph_core import (NORM_MARGIN, PointSet, WeightedGraph, as_fraction, at_least,
                         clean_vertex_set, largest_component, shortest_path_pairs)
from .lso import build_ordering_family, sort_by_ordering
from .quadtree import Quadtree, build_quadtree
from .shadow import (shadow_1d, shadow_1d_candidate_sizes, shadow_quadtree,
                     shadow_quadtree_candidate_sizes)
from .spanner1d import one_path_coverage
from .spanner_euclidean import hd_config
from .streams import substream

STRETCH_SLACK = 1.0 + 1e-9  # a pair fails only beyond (1+eps)*dist*(1+1e-9)
FAILING_KEPT = 64  # failing pairs kept for the sample and the greedy cover
REPORTED_META = ("kind", "n", "xi", "theta", "epsilon", "mode", "regime", "variant", "M",
                 "theta_prime", "seed", "cert_alpha", "gamma", "experimental")


@dataclass
class AttackSpec:
    kind: str  # random | prefix | interval | ball | greedy-shadow
    k: int
    seed: int = 0

    def as_dict(self) -> dict:
        return {"kind": self.kind, "k": self.k, "seed": self.seed}


@dataclass
class ReliabilityReport:
    report_version: int
    construction: dict
    attack: dict | None
    n: int
    k: int
    bplus_size: int
    bound: float
    bound_ok: bool
    failing_outside: int
    failing_sample: list
    passed: bool
    loss_certificate: int
    loss_greedy: int
    greedy_le_certificate: bool
    pairs_checked: int
    pair_sampling: dict
    max_stretch: float | None = None
    max_hops: int | None = None
    regime: str | None = None
    notes: list = field(default_factory=list)
    runtime_s: float = 0.0

    def as_dict(self) -> dict:
        out = dict(self.__dict__)
        out["construction"] = dict(self.construction)
        return out


def _greedy_cover(pairs: list[tuple[int, int]]) -> int:
    """Greedy vertex cover size of the failing-pair graph."""
    remaining = set(pairs)
    cover = 0
    while remaining:
        degree: dict[int, int] = {}
        for a, b in remaining:
            degree[a] = degree.get(a, 0) + 1
            degree[b] = degree.get(b, 0) + 1
        best = min(degree, key=lambda v: (-degree[v], v))
        remaining = {e for e in remaining if best not in e}
        cover += 1
    return cover


# ---------------------------------------------------------------------------
# the certification context
# ---------------------------------------------------------------------------

class Certifier:
    """Certification context of one graph: see the module docstring."""

    def __init__(self, g: WeightedGraph):
        self.g = g
        self.kind = g.meta.get("kind")
        # the one dispatch on the construction kind: the rule for B+, the
        # greedy-shadow objective, the pair audit, the bound factor on |B|
        # and the meta keys the report repeats
        factor, reported = g.meta.get("bplus_factor"), REPORTED_META
        if self.kind in ("h1d", "g_theta"):
            rules = self._line_shadow, self._line_scores, self._coverage_audit
        elif self.kind == "bounded_spread":
            rules = self._cell_shadow, self._cell_scores, self._stretch_audit
        elif self.kind == "hd":
            rules = self._rank_shadow, self._cell_scores, self._stretch_audit
        elif self.kind == "reliable_connectivity":
            rules = self._outside_giant, None, self._no_audit
            factor, reported = 1 + as_fraction(g.meta["theta"]), ("kind", "n", "theta", "seed")
        else:
            rules = None, None, None
        self._bplus, self._scores, self._audit = rules
        self._factor, self._reported = factor, reported

    # -- state that depends only on the graph, built on first use ------------

    @cached_property
    def normed(self) -> np.ndarray:
        """The positions in PointSet's frame, the builders' one.  The margin
        a graph records may come from a sidecar, so another one is refused."""
        if self.g.meta["norm_margin"] != NORM_MARGIN:
            raise ValueError(f"graph records norm_margin {self.g.meta['norm_margin']!r}; "
                             f"certification needs the contract's {NORM_MARGIN}")
        return PointSet(self.g.positions).normed

    @cached_property
    def tree(self) -> Quadtree:
        return build_quadtree(self.normed)

    @cached_property
    def config(self) -> dict:
        """hd_config of the build's parameters, so theta' comes from the
        family's actual size."""
        m = self.g.meta
        return hd_config(m["n"], m["d"], m["epsilon"], m["theta"], m["variant"], m["c2"])

    @cached_property
    def rank_permutations(self) -> list[np.ndarray]:
        """Per ordering of the build's family, the point ids in rank order."""
        family = build_ordering_family(self.g.meta["d"], self.g.meta["sigma"])
        return [sort_by_ordering(o, self.normed) for o in family.orderings]

    @cached_property
    def edge_keys(self) -> np.ndarray:
        """The edges' keys u * n + v, ascending: the edge arrays are canonical."""
        return self.g.u * np.int64(self.g.n) + self.g.v

    def _joined(self, s: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Whether an edge joins s[i] and t[i], for every pair i."""
        keys = np.minimum(s, t) * np.int64(self.g.n) + np.maximum(s, t)
        at = np.searchsorted(self.edge_keys, keys)
        hit = at < self.edge_keys.size
        hit[hit] = self.edge_keys[at[hit]] == keys[hit]
        return hit

    @cached_property
    def _alpha(self) -> Fraction | None:
        """The certified 1D shadow threshold; None when the build has none."""
        alpha = self.g.meta.get("cert_alpha")
        return None if alpha is None else as_fraction(alpha)

    @cached_property
    def _gamma(self) -> Fraction:
        """The quadtree shadow threshold: the bounded-spread builder's, and
        1 - theta/2 on ordering-union graphs, which record none."""
        meta = self.g.meta
        return as_fraction(meta.get("gamma") or 1 - as_fraction(meta["theta"]) / 2)

    # -- the rules for B+ ------------------------------------------------------

    def _line_shadow(self, bad: np.ndarray) -> tuple[np.ndarray, list[str]]:
        if self._alpha is None:
            raise ValueError("construction carries no shadow certificate (xi too large?)")
        return shadow_1d(self.g.n, bad, self._alpha).members, []

    def _cell_shadow(self, bad: np.ndarray) -> tuple[np.ndarray, list[str]]:
        return shadow_quadtree(self.tree, bad, self._gamma).members, []

    def _rank_shadow(self, bad: np.ndarray) -> tuple[np.ndarray, list[str]]:
        """Iterated union over the ordering family of rank-line shadows, with
        theta' recomputed from the family's actual size."""
        meta = self.g.meta
        notes = []
        theta_prime = self.config["theta_prime"]
        if str(theta_prime) != meta["theta_prime"]:
            notes.append(f"theta' mismatch: build {meta['theta_prime']}, "
                         f"recomputed {theta_prime}")
        alpha = 1 - theta_prime / 4
        n = self.g.n
        # when no interval holding a single survivor can reach the threshold,
        # every per-ordering shadow is exactly B and the iteration is stationary
        if n * (1 - alpha) < alpha:
            notes.append("per-ordering shadows collapse to B at this scale")
            return bad.copy(), notes
        current = bad.copy()
        for _ in range(self.config["rounds"]):
            failed = np.zeros(n, dtype=bool)
            failed[current] = True
            union = failed.copy()
            for perm in self.rank_permutations:
                # failed[perm] marks the failed ranks, so they come sorted
                union[perm[shadow_1d(n, np.flatnonzero(failed[perm]), alpha).members]] = True
            nxt = np.flatnonzero(union)
            if nxt.size == current.size:
                break
            current = nxt
        return current, notes

    def _outside_giant(self, bad: np.ndarray) -> tuple[np.ndarray, list[str]]:
        """The connectivity claim's B+: the failed vertices and every survivor
        cut off from the largest surviving component."""
        outside = np.ones(self.g.n, dtype=bool)
        outside[largest_component(self.g, bad)] = False
        return np.flatnonzero(outside), ["connectivity-only certification"]

    # -- the greedy-shadow objectives: B -> |shadow(B + {v})| for every v --------

    def _line_scores(self, bad: np.ndarray) -> np.ndarray:
        if self._alpha is None:
            raise ValueError(f"no greedy-shadow objective for construction {self.kind!r}: "
                             "it carries no shadow certificate")
        return shadow_1d_candidate_sizes(self.g.n, bad, self._alpha)

    def _cell_scores(self, bad: np.ndarray) -> np.ndarray:
        return shadow_quadtree_candidate_sizes(self.tree, bad, self._gamma)

    # -- the pair audits: (first failing pairs, failing count, pairs checked,
    #    sampling, max stretch, max hops) ---------------------------------------

    def _coverage_audit(self, bad, good, pair_budget, seed) -> tuple:
        """Monotone 1-path coverage of every good pair, in one walk."""
        failures, failing, max_hops = one_path_coverage(
            self.g, bad, good, self.g.meta.get("hop_cap"), FAILING_KEPT)
        checked = good.size * (good.size - 1) // 2
        return (failures, failing, checked, {"mode": "all", "pairs": checked},
                1.0 if good.size > 1 else None, max_hops)

    def _stretch_audit(self, bad, good, pair_budget, seed) -> tuple:
        """Stretch audit over good pairs; all of them when they number at most
        pair_budget, otherwise the distinct pairs among pair_budget uniform
        draws, with the draws, the distinct count and the seed recorded.
        Either way the audited pairs (s, t) have s < t and come sorted, so
        failing pairs come row-major.

        Every edge weighs its Euclidean length, so a pair joined by an edge
        has stretch exactly 1 and cannot fail: it counts as checked, at
        stretch 1.0.  Dijkstra runs only from sources with a target they are
        not joined to, and only those pairs are read."""
        g = self.g
        if good.size < 2:
            return [], 0, 0, {"mode": "all"}, None, None
        total_pairs = good.size * (good.size - 1) // 2
        if total_pairs <= pair_budget:
            sampling = {"mode": "all", "pairs": int(total_pairs)}
            srcs, tgts = np.triu_indices(good.size, 1)
        else:
            rng = substream(seed, "stretch-sample")
            a = rng.integers(0, good.size, size=pair_budget)
            b = rng.integers(0, good.size, size=pair_budget)
            keys = np.unique((np.minimum(a, b) * good.size + np.maximum(a, b))[a != b])
            srcs, tgts = np.divmod(keys, good.size)
            sampling = {"mode": "sampled", "draws": int(pair_budget), "pairs": int(keys.size),
                        "seed": seed}
        s, t = good[srcs], good[tgts]
        ratio = np.ones(s.size)
        far = np.flatnonzero(~self._joined(s, t))
        if far.size:
            fs, ft = s[far], t[far]
            euc = np.sqrt(((g.positions[fs] - g.positions[ft]) ** 2).sum(axis=1))
            ratio[far] = shortest_path_pairs(g, bad, fs, ft) / euc
        over = np.flatnonzero(ratio > (1.0 + g.meta["epsilon"]) * STRETCH_SLACK)
        kept = over[:FAILING_KEPT]
        failures = list(zip(s[kept].tolist(), t[kept].tolist()))
        max_stretch = float(ratio.max()) if s.size else 0.0
        return failures, int(over.size), int(s.size), sampling, max_stretch, None

    def _no_audit(self, bad, good, pair_budget, seed) -> tuple:
        return [], 0, 0, {"mode": "components"}, None, None

    # -- what the context serves -----------------------------------------------

    def attack(self, spec: AttackSpec) -> np.ndarray:
        """Deterministic failure set of size k, 0 <= k <= n.

        random: k distinct uniform ids; prefix: 0..k-1; interval: k
        consecutive ids at a random start; ball: the k points nearest a
        random center.  greedy-shadow adds, k times, the vertex whose failure
        most enlarges a shadow of B (lowest id on ties), and stops early once
        that shadow is all n vertices.  The shadow is the certificate's own on
        line graphs (the cert_alpha 1D shadow) and on bounded-spread graphs
        (the gamma-quadtree shadow).  On ordering-union (hd) graphs it is only
        a proxy: the quadtree shadow at gamma = 1 - theta/2, whereas certify
        uses the ordering-union shadow.
        """
        g = self.g
        n = g.n
        if not 0 <= spec.k <= n:
            raise ValueError(f"k must be in [0, {n}], got {spec.k}")
        if spec.kind == "random-k":  # accepted alias
            spec = AttackSpec("random", spec.k, spec.seed)
        rng = substream(spec.seed, "attack", spec.kind)
        if spec.kind == "random":
            return np.sort(rng.choice(n, size=spec.k, replace=False)).astype(np.int64)
        if spec.kind == "prefix":
            return np.arange(spec.k, dtype=np.int64)
        if spec.kind == "interval":
            start = int(rng.integers(0, n - spec.k + 1))
            return np.arange(start, start + spec.k, dtype=np.int64)
        if spec.kind == "ball":
            if g.positions is None:
                raise ValueError("ball attacks need point positions")
            center = int(rng.integers(0, n))
            d2 = ((g.positions - g.positions[center]) ** 2).sum(axis=1)
            order = np.lexsort((np.arange(n), d2))
            return np.sort(order[:spec.k]).astype(np.int64)
        if spec.kind == "greedy-shadow":
            if self._scores is None:
                raise ValueError(f"no greedy-shadow objective for construction {self.kind!r}")
            chosen: list[int] = []
            for _ in range(spec.k):
                sizes = self._scores(np.asarray(chosen, dtype=np.int64))
                sizes[chosen] = -1
                best = int(np.argmax(sizes))  # the first maximum: lowest id
                chosen.append(best)
                if sizes[best] >= n:
                    break  # shadow saturated
            return np.sort(np.asarray(chosen, dtype=np.int64))
        raise ValueError(f"unknown attack kind {spec.kind!r}")

    def certify(self, B, pair_budget: int = 10 ** 6, seed: int = 0,
                attack: AttackSpec | None = None) -> ReliabilityReport:
        """Certify the graph against its construction's reliability claim
        under the failure set B: compute B+, check |B+| against the bound,
        then audit the surviving pairs outside B+ (a sampling audit draws
        pair_budget >= 1 of them)."""
        at_least(pair_budget, "pair_budget", 1)
        t0 = time.perf_counter()
        g = self.g
        bad = clean_vertex_set(B, g.n)
        if self._bplus is None:
            raise ValueError(f"unknown construction meta kind {self.kind!r}")
        k = int(bad.size)
        bplus, notes = self._bplus(bad)
        bound = as_fraction(self._factor) * k
        bound_ok = bplus.size <= bound if k else bplus.size == 0
        good = np.ones(g.n, dtype=bool)
        good[bad] = False
        good[bplus] = False
        good = np.flatnonzero(good)
        failures, failing, checked, sampling, max_stretch, max_hops = self._audit(
            bad, good, pair_budget, seed)
        loss_cert = int(bplus.size - np.intersect1d(bplus, bad).size)
        loss_greedy = _greedy_cover(failures) if failures else 0
        if failing > len(failures):
            notes.append(f"loss_greedy covers the first {len(failures)} of {failing} failing pairs")
        return ReliabilityReport(
            report_version=1,
            construction={key: g.meta[key] for key in g.meta if key in self._reported},
            attack=attack.as_dict() if attack else None,
            n=g.n, k=k,
            bplus_size=int(bplus.size),
            bound=float(bound),
            bound_ok=bool(bound_ok),
            failing_outside=failing,
            failing_sample=failures[:16],
            passed=bool(bound_ok and not failing),
            loss_certificate=loss_cert,
            loss_greedy=loss_greedy,
            greedy_le_certificate=loss_greedy <= loss_cert,
            pairs_checked=checked,
            pair_sampling=sampling,
            max_stretch=max_stretch,
            max_hops=max_hops,
            regime=g.meta.get("regime"),
            notes=notes,
            runtime_s=time.perf_counter() - t0,
        )


def generate_attack(spec: AttackSpec, g: WeightedGraph) -> np.ndarray:
    """Deterministic failure set of size k, 0 <= k <= n: Certifier.attack."""
    return Certifier(g).attack(spec)


def certify(g: WeightedGraph, B, pair_budget: int = 10 ** 6, seed: int = 0,
            attack: AttackSpec | None = None) -> ReliabilityReport:
    """Certify a built graph against its construction's reliability claim:
    Certifier.certify."""
    return Certifier(g).certify(B, pair_budget, seed, attack)


# ---------------------------------------------------------------------------
# loss curves
# ---------------------------------------------------------------------------

def loss_curve(g: WeightedGraph, attack_kind: str, k_list, trials: int,
               seed: int = 0, pair_budget: int = 10 ** 6) -> list[dict]:
    """Per-trial certification rows plus per-k aggregates, all from one
    certification context."""
    at_least(trials, "trials", 1)
    ctx = Certifier(g)
    rows = []
    for k in k_list:
        for trial in range(trials):
            spec = AttackSpec(attack_kind, k, seed=seed * 1_000_003 + k * 1009 + trial)
            bad = ctx.attack(spec)
            rep = ctx.certify(bad, pair_budget=pair_budget, seed=spec.seed, attack=spec)
            rows.append({
                "k": k, "trial": trial, "kind": attack_kind,
                "bad": int(bad.size),
                "bplus": rep.bplus_size,
                "ratio": rep.bplus_size / bad.size if bad.size else 0.0,
                "loss_greedy": rep.loss_greedy,
                "max_stretch": rep.max_stretch if rep.max_stretch is not None else "",
                "passed": rep.passed,
            })
    out = list(rows)
    for k in k_list:
        sub = [r for r in rows if r["k"] == k]
        if not sub:
            continue
        stretches = [r["max_stretch"] for r in sub if r["max_stretch"] != ""]
        out.append({
            "k": k, "trial": "aggregate", "kind": attack_kind,
            "bad": int(np.mean([r["bad"] for r in sub])),
            "bplus": max(r["bplus"] for r in sub),
            "ratio": max(r["ratio"] for r in sub),
            "loss_greedy": max(r["loss_greedy"] for r in sub),
            "max_stretch": max(stretches) if stretches else "",
            "passed": all(r["passed"] for r in sub),
        })
    return out


def write_loss_csv(rows: list[dict], path) -> None:
    import csv
    fields = ["k", "trial", "kind", "bad", "bplus", "ratio", "loss_greedy",
              "max_stretch", "passed"]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)
