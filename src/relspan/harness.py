"""Attack generation and end-to-end certification of built spanners.

certify() recomputes each construction's canonical harmed superset (the
shadow its reliability argument prescribes), checks its size bound, then
audits the spanner property over all surviving pairs outside it: monotone
1-path coverage on the line, Dijkstra stretch in Euclidean graphs.  The
minimal harmed set is NP-hard flavored, so a greedy vertex-cover estimate of
the observed loss is reported alongside the constructive certificate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from scipy.sparse.csgraph import connected_components

from .graph_core import (WeightedGraph, clean_vertex_set, shortest_path_matrix)
from .quadtree import build_quadtree, normalize_unit
from .shadow import (as_fraction, shadow_1d, shadow_1d_candidate_sizes, shadow_quadtree,
                     shadow_quadtree_candidate_sizes)
from .spanner1d import coverage_totals, one_path_coverage
from .spanner_euclidean import hd_config, hd_rank_permutations
from .streams import substream

STRETCH_SLACK = 1.0 + 1e-9  # a pair fails only beyond (1+eps)*dist*(1+1e-9)
FAILING_KEPT = 64  # failing pairs kept for the sample and the greedy cover


# ---------------------------------------------------------------------------
# attacks
# ---------------------------------------------------------------------------

@dataclass
class AttackSpec:
    kind: str  # random | prefix | interval | ball | greedy-shadow
    k: int
    seed: int = 0

    def as_dict(self) -> dict:
        return {"kind": self.kind, "k": self.k, "seed": self.seed}


def _greedy_objective(g: WeightedGraph):
    """The function B -> |shadow(B + {v})| for every vertex v that the
    greedy-shadow attack maximizes."""
    kind = g.meta.get("kind", "")
    if g.meta.get("line"):
        alpha = as_fraction(g.meta.get("cert_alpha") or Fraction(1, 2))

        def sizes_1d(bad: np.ndarray) -> np.ndarray:
            return shadow_1d_candidate_sizes(g.n, bad, alpha)
        return sizes_1d
    if g.positions is not None:
        gamma = as_fraction(g.meta.get("gamma") or (1 - as_fraction(g.meta["theta"]) / 2))
        normed, _, _ = normalize_unit(g.positions, margin=g.meta.get("norm_margin", 0.125))
        tree = build_quadtree(normed, already_normalized=True)

        def sizes_tree(bad: np.ndarray) -> np.ndarray:
            return shadow_quadtree_candidate_sizes(tree, bad, gamma)
        return sizes_tree
    raise ValueError(f"no greedy-shadow objective for construction {kind!r}")


def generate_attack(spec: AttackSpec, g: WeightedGraph) -> np.ndarray:
    """Deterministic failure set of size k, 0 <= k <= n.

    random: k distinct uniform ids; prefix: 0..k-1; interval: k consecutive
    ids at a random start; ball: the k points nearest a random center.
    greedy-shadow adds, k times, the vertex whose failure most enlarges a
    shadow of B (lowest id on ties), and stops early once that shadow is
    all n vertices.  The shadow is the certificate's own on line graphs
    (the cert_alpha 1D shadow) and on bounded-spread graphs (the
    gamma-quadtree shadow).  On ordering-union (hd) graphs it is only a
    proxy: the quadtree shadow at gamma = 1 - theta/2, whereas certify uses
    the ordering-union shadow.
    """
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
        sizes_after = _greedy_objective(g)
        chosen: list[int] = []
        for _ in range(spec.k):
            sizes = sizes_after(np.asarray(chosen, dtype=np.int64))
            sizes[chosen] = -1
            best = int(np.argmax(sizes))  # the first maximum: lowest id
            chosen.append(best)
            if sizes[best] >= n:
                break  # shadow saturated
        return np.sort(np.asarray(chosen, dtype=np.int64))
    raise ValueError(f"unknown attack kind {spec.kind!r}")


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------

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


def _bplus_1d(g: WeightedGraph, bad: np.ndarray) -> tuple[np.ndarray, list[str]]:
    alpha = g.meta.get("cert_alpha")
    if alpha is None:
        raise ValueError("construction carries no shadow certificate (xi too large?)")
    return shadow_1d(g.n, bad, as_fraction(alpha)).members, []


def _bplus_quadtree(g: WeightedGraph, bad: np.ndarray) -> tuple[np.ndarray, list[str]]:
    normed, _, _ = normalize_unit(g.positions, margin=g.meta["norm_margin"])
    tree = build_quadtree(normed, already_normalized=True)
    return shadow_quadtree(tree, bad, as_fraction(g.meta["gamma"])).members, []


def _bplus_hd(g: WeightedGraph, bad: np.ndarray) -> tuple[np.ndarray, list[str]]:
    """Iterated union over the ordering family of rank-line shadows, with
    theta' recomputed from the family's actual size."""
    meta = g.meta
    cfg = hd_config(meta["n"], meta["d"], meta["epsilon"], as_fraction(meta["theta"]),
                    meta["variant"], meta["c2"])
    notes = []
    theta_prime = cfg["theta_prime"]
    if str(theta_prime) != meta["theta_prime"]:
        notes.append(f"theta' mismatch: build {meta['theta_prime']}, "
                     f"recomputed {theta_prime}")
    alpha = 1 - theta_prime / 4
    n = g.n
    # when no interval holding a single survivor can reach the threshold,
    # every per-ordering shadow is exactly B and the iteration is stationary
    if n * (1 - alpha) < alpha:
        notes.append("per-ordering shadows collapse to B at this scale")
        return bad.copy(), notes
    family, perms = hd_rank_permutations(g)
    current = bad.copy()
    for _ in range(cfg["rounds"]):
        union = set(current.tolist())
        for perm in perms:
            rank_of = np.empty(n, dtype=np.int64)
            rank_of[perm] = np.arange(n)
            ranks_bad = np.sort(rank_of[current])
            members = shadow_1d(n, ranks_bad, alpha).members
            union.update(perm[members].tolist())
        nxt = np.asarray(sorted(union), dtype=np.int64)
        if nxt.size == current.size:
            break
        current = nxt
    return current, notes


def _audit_1d(g: WeightedGraph, bad: np.ndarray, good: np.ndarray,
              hop_cap) -> tuple[list, int, int, int | None, float | None]:
    _, failures, max_hops = one_path_coverage(g, bad, good, hop_cap, FAILING_KEPT)
    failing = len(failures)
    if failing == FAILING_KEPT:  # the coverage check stopped early: count them all
        failing, max_hops = coverage_totals(g, bad, good, hop_cap)
    checked = good.size * (good.size - 1) // 2
    return failures, failing, checked, max_hops, 1.0 if good.size > 1 else None


def _audit_stretch(g: WeightedGraph, bad: np.ndarray, good: np.ndarray,
                   epsilon: float, pair_budget: int, seed: int
                   ) -> tuple[list, int, int, dict, float | None]:
    """Stretch audit over good pairs; all pairs when n is small, otherwise a
    uniform sample of pair_budget pairs with the sampling seed recorded.
    Returns (first failing pairs, failing count, checked, sampling, max stretch)."""
    if good.size < 2:
        return [], 0, 0, {"mode": "all"}, None
    total_pairs = good.size * (good.size - 1) // 2
    limit = (1.0 + epsilon) * STRETCH_SLACK
    pos = g.positions
    failures: list[tuple[int, int]] = []
    max_stretch = 0.0
    if g.n <= 2048 and total_pairs <= pair_budget:
        sampling = {"mode": "all", "pairs": int(total_pairs)}
        dist = shortest_path_matrix(g, bad, good)
        euc = np.sqrt(((pos[good][:, None, :] - pos[good][None, :, :]) ** 2).sum(axis=2))
        iu = np.triu_indices(good.size, k=1)
        ratio = dist[:, good][iu] / euc[iu]
        max_stretch = float(np.nanmax(ratio))
        bad_idx = np.nonzero(ratio > limit)[0]
        failures = [(int(good[iu[0][b]]), int(good[iu[1][b]])) for b in bad_idx[:FAILING_KEPT]]
        failing = int(bad_idx.size)
        checked = int(total_pairs)
    else:
        rng = substream(seed, "stretch-sample")
        sampling = {"mode": "sampled", "pairs": int(pair_budget), "seed": seed}
        srcs = rng.integers(0, good.size, size=pair_budget)
        tgts = rng.integers(0, good.size, size=pair_budget)
        keep = srcs != tgts
        srcs, tgts = srcs[keep], tgts[keep]
        uniq = np.unique(srcs)
        checked = int(srcs.size)
        failing = 0
        for chunk_start in range(0, uniq.size, 256):
            chunk = uniq[chunk_start:chunk_start + 256]
            dist = shortest_path_matrix(g, bad, good[chunk])
            row_of = {int(s): i for i, s in enumerate(chunk)}
            sel = np.isin(srcs, chunk)
            for s_idx, t_idx in zip(srcs[sel], tgts[sel]):
                s, t = int(good[s_idx]), int(good[t_idx])
                de = float(np.linalg.norm(pos[s] - pos[t]))
                dg = float(dist[row_of[int(s_idx)], t])
                ratio = dg / de
                max_stretch = max(max_stretch, ratio)
                if ratio > limit:
                    failing += 1
                    if len(failures) < FAILING_KEPT:
                        failures.append((s, t))
    return failures, failing, checked, sampling, max_stretch


def certify(g: WeightedGraph, B, pair_budget: int = 10 ** 6, seed: int = 0,
            attack: AttackSpec | None = None) -> ReliabilityReport:
    """Certify a built graph against its construction's reliability claim."""
    t0 = time.perf_counter()
    kind = g.meta.get("kind")
    bad = clean_vertex_set(B, g.n)
    k = int(bad.size)
    notes: list[str] = []

    if kind == "reliable_connectivity":
        return _certify_connectivity(g, bad, attack, t0)

    if kind in ("h1d", "g_theta"):
        bplus, extra = _bplus_1d(g, bad)
    elif kind == "bounded_spread":
        bplus, extra = _bplus_quadtree(g, bad)
    elif kind == "hd":
        bplus, extra = _bplus_hd(g, bad)
    else:
        raise ValueError(f"unknown construction meta kind {kind!r}")
    notes.extend(extra)

    factor = g.meta.get("bplus_factor")
    if isinstance(factor, str):
        bound = as_fraction(factor) * k
        bound_ok = Fraction(int(bplus.size)) <= bound
        bound_val = float(bound)
    else:
        bound_val = float(factor) * k
        bound_ok = bplus.size <= bound_val
    if k == 0:
        bound_ok = bplus.size == 0

    alive_mask = np.ones(g.n, dtype=bool)
    alive_mask[bad] = False
    harmed_mask = np.zeros(g.n, dtype=bool)
    harmed_mask[bplus] = True
    good = np.nonzero(alive_mask & ~harmed_mask)[0].astype(np.int64)

    max_hops = None
    max_stretch = None
    if kind in ("h1d", "g_theta"):
        hop_cap = g.meta.get("hop_cap") if kind == "g_theta" else None
        failures, failing, checked, max_hops, max_stretch = _audit_1d(g, bad, good, hop_cap)
        sampling = {"mode": "all", "pairs": checked}
    else:
        failures, failing, checked, sampling, max_stretch = _audit_stretch(
            g, bad, good, g.meta["epsilon"], pair_budget, seed)

    loss_cert = int(bplus.size - np.intersect1d(bplus, bad).size)
    loss_greedy = _greedy_cover(failures) if failures else 0
    if failing > len(failures):
        notes.append(f"loss_greedy covers the first {len(failures)} of {failing} failing pairs")
    report = ReliabilityReport(
        report_version=1,
        construction={key: g.meta[key] for key in g.meta
                      if key in ("kind", "n", "xi", "theta", "epsilon", "mode",
                                 "regime", "variant", "M", "theta_prime", "seed",
                                 "cert_alpha", "gamma", "experimental")},
        attack=attack.as_dict() if attack else None,
        n=g.n, k=k,
        bplus_size=int(bplus.size),
        bound=bound_val,
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
    return report


def _certify_connectivity(g: WeightedGraph, bad: np.ndarray,
                          attack: AttackSpec | None, t0: float) -> ReliabilityReport:
    """Connectivity-only claim: the largest surviving component misses at
    most (1+theta)|B| vertices."""
    theta = as_fraction(g.meta["theta"])
    k = int(bad.size)
    alive = np.ones(g.n, dtype=bool)
    alive[bad] = False
    keep = alive[g.u] & alive[g.v]
    from scipy.sparse import csr_matrix
    adj = csr_matrix((np.ones(int(keep.sum())), (g.u[keep], g.v[keep])),
                     shape=(g.n, g.n))
    ncomp, labels = connected_components(adj, directed=False)
    labels = labels.copy()
    labels[~alive] = -1
    sizes = np.bincount(labels[labels >= 0], minlength=ncomp) if g.n - k else np.array([0])
    largest = int(sizes.max()) if sizes.size else 0
    bplus = g.n - largest  # failed plus disconnected-from-the-giant
    bound = float((1 + theta) * k)
    ok = bplus <= bound if k else bplus == 0
    return ReliabilityReport(
        report_version=1,
        construction={"kind": g.meta["kind"], "theta": g.meta["theta"],
                      "n": g.n, "seed": g.meta.get("seed")},
        attack=attack.as_dict() if attack else None,
        n=g.n, k=k,
        bplus_size=int(bplus),
        bound=bound,
        bound_ok=bool(ok),
        failing_outside=0,
        failing_sample=[],
        passed=bool(ok),
        loss_certificate=int(bplus - k),
        loss_greedy=0,
        greedy_le_certificate=True,
        pairs_checked=0,
        pair_sampling={"mode": "components"},
        notes=["connectivity-only certification"],
        runtime_s=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# loss curves
# ---------------------------------------------------------------------------

def loss_curve(g: WeightedGraph, attack_kind: str, k_list, trials: int,
               seed: int = 0, pair_budget: int = 10 ** 6) -> list[dict]:
    """Per-trial certification rows plus per-k aggregates."""
    rows = []
    for k in k_list:
        for trial in range(trials):
            spec = AttackSpec(attack_kind, k, seed=seed * 1_000_003 + k * 1009 + trial)
            bad = generate_attack(spec, g)
            rep = certify(g, bad, pair_budget=pair_budget, seed=spec.seed, attack=spec)
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
