"""Single entry point: builders, shadow tools, attacks, certification.

Every output file sits beside a JSON sidecar holding the construction
metadata and a run manifest (resolved parameters, seeds, input hashes,
artifact version).  Reruns with an equal manifest produce byte-identical
edge lists.  Exit codes: 0 success, 1 certification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .expanders import (build_bipartite_expander, build_reliable_connectivity,
                        build_strong_expander, build_verified_bipartite,
                        verify_connectivity_sampled, verify_expansion_sampled,
                        verify_strong_expansion, verify_strong_sampled)
from .graph_core import WeightedGraph, at_least, clean_vertex_set, load_edge_list, load_points
from .harness import AttackSpec, certify, generate_attack, loss_curve, write_loss_csv
from .lso import build_ordering_family, check_lso_property
from .quadtree import build_quadtree
from .shadow import (check_shadow_bounds, cone_mark_unsafe, shadow_1d, shadow_balls_oracle,
                     shadow_quadtree)
from .spanner1d import build_G_theta, build_H, g_theta_crossover
from .spanner_euclidean import build_bounded_spread_spanner, build_hd_spanner
from .streams import substream


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, Fraction):
        return str(obj)
    return obj


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _manifest(args, inputs: list) -> dict:
    """The run manifest; its params are every parsed argument but the command
    and the output path."""
    params = {k: v for k, v in vars(args).items()
              if k not in ("command", "out") and not k.startswith("_")}
    return {
        "command": args.command,
        "argv": list(getattr(args, "_argv", [])),
        "params": _jsonable(params),
        "input_hashes": {str(p): _sha256(p) for p in inputs if p},
        "artifact_version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def save_graph(g: WeightedGraph, out: str, manifest: dict) -> None:
    g.save_edges(out)
    sidecar = {
        "n": g.n,
        "meta": _jsonable(g.meta),
        "positions": g.positions.tolist() if g.positions is not None else None,
        "manifest": manifest,
    }
    Path(out + ".json").write_text(json.dumps(sidecar, indent=2) + "\n", encoding="utf-8")


def load_graph(path: str) -> WeightedGraph:
    sidecar = json.loads(Path(path + ".json").read_text(encoding="utf-8"))
    positions = (np.asarray(sidecar["positions"], dtype=np.float64)
                 if sidecar.get("positions") is not None else None)
    meta = sidecar["meta"]
    return load_edge_list(path, n=sidecar["n"], positions=positions,
                          line=bool(meta.get("line")), meta=meta)


def _load_bad(path, n: int) -> np.ndarray:
    ids = [int(tok) for tok in Path(path).read_text(encoding="utf-8").split()]
    return clean_vertex_set(ids, n)


def _write_json(path, payload: dict) -> None:
    Path(path).write_text(json.dumps(_jsonable(payload), indent=2) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------

def _cmd_build(args) -> int:
    inputs = []
    if args.target == "1d-const":
        g = build_H(args.n, args.xi, args.seed, degree_constant_override=args.override_c)
    elif args.target == "1d-theta":
        g = build_G_theta(args.n, args.theta, c=args.c, seed=args.seed,
                          mode=args.mode, degree_constant_override=args.override_c)
        if g.meta["regime"] != "layered":
            print(f"note: regime={g.meta['regime']}; layered construction needs n >= "
                  f"{g_theta_crossover(args.theta, args.c)} at these parameters",
                  file=sys.stderr)
    elif args.target == "hd":
        inputs = [args.points]
        g = build_hd_spanner(load_points(args.points), args.eps, args.theta,
                             variant=args.variant, seed=args.seed, c2=args.c2,
                             sub_c=args.sub_c, sub_mode=args.sub_mode)
    else:  # bounded-spread
        inputs = [args.points]
        g = build_bounded_spread_spanner(load_points(args.points), args.eps,
                                         args.theta, seed=args.seed)
    save_graph(g, args.out, _manifest(args, inputs))
    print(f"built {g.meta['kind']}: n={g.n} edges={g.edge_count} -> {args.out}")
    return 0


def _verify_arg(modes: tuple, samples: int):
    """argparse type of an expander's --verify: one of modes, or sampled:k
    for k >= 1 samples (samples when k is omitted), parsed to (mode, k), k
    None when exhaustive."""
    def parse(value: str) -> tuple:
        mode, colon, k = value.partition(":")
        if mode in modes and (not colon or (mode == "sampled" and k.isdecimal() and int(k) > 0)):
            count = int(k) if colon else samples
            return mode, count if mode == "sampled" else None
        raise argparse.ArgumentTypeError(
            f"expected {' or '.join(modes)}, or sampled:k with k >= 1; got {value!r}")
    return parse


def _cmd_expander(args) -> int:
    mode, samples = args.verify or (None, None)
    if args.flavor == "bipartite":
        if mode == "exhaustive":
            g, _, _ = build_verified_bipartite(args.left, args.right, args.xi, args.seed,
                                               max_attempts=args.max_attempts,
                                               degree_constant_override=args.override_c)
        else:
            g = build_bipartite_expander(args.left, args.right, args.xi, args.seed,
                                         degree_constant_override=args.override_c)
        if mode == "sampled":
            sides = (np.arange(args.left), np.arange(args.left, args.left + args.right))
            g.meta["verify"] = verify_expansion_sampled(g, sides, args.xi, samples,
                                                        seed=args.seed).as_dict()
    elif args.flavor == "strong":
        g = build_strong_expander(args.n, args.alpha, args.beta, args.seed,
                                  degree_constant_override=args.override_c)
        if mode == "exhaustive":
            g.meta["verify"] = verify_strong_expansion(g, args.alpha, args.beta).as_dict()
        elif mode == "sampled":
            g.meta["verify"] = verify_strong_sampled(g, args.alpha, args.beta, samples,
                                                     seed=args.seed).as_dict()
    else:  # reliable
        g = build_reliable_connectivity(args.n, args.theta, args.seed,
                                        degree_constant_override=args.override_c)
        if mode == "sampled":
            g.meta["verify"] = verify_connectivity_sampled(g, args.theta, samples,
                                                           seed=args.seed).as_dict()
    save_graph(g, args.out, _manifest(args, []))
    verdict = g.meta.get("verify", {}).get("passed")
    suffix = f" verify={verdict}" if verdict is not None else ""
    print(f"built {g.meta['kind']}: n={g.n} edges={g.edge_count}{suffix}")
    return 0


def _cmd_shadow(args) -> int:
    if args.variant == "1d":
        bad = _load_bad(args.bad, args.n)
        res = shadow_1d(args.n, bad, args.alpha, side=args.side, witness=True)
        payload = {
            "members": res.members,
            "witnesses": {int(k): list(v) for k, v in (res.witnesses or {}).items()},
            "bound_checks": check_shadow_bounds(res, bad),
        }
    elif args.variant == "quadtree":
        pts = load_points(args.points)
        bad = _load_bad(args.bad, pts.n)
        tree = build_quadtree(pts.normed)
        res = shadow_quadtree(tree, bad, args.gamma)
        payload = {"members": res.members,
                   "shadowed_nodes": res.shadowed_nodes,
                   "maximal_nodes": res.maximal_nodes}
    elif args.variant == "balls":
        pts = load_points(args.points)
        bad = _load_bad(args.bad, pts.n)
        res = shadow_balls_oracle(pts.coords, bad, args.alpha)
        payload = {"members": res.members}
    else:  # cones
        pts = load_points(args.points)
        bad = _load_bad(args.bad, pts.n)
        unsafe = cone_mark_unsafe(pts.coords, bad, args.alpha)
        payload = {"members": unsafe}
    _write_json(args.out, payload)
    print(f"shadow {args.variant}: {len(payload['members'])} members -> {args.out}")
    return 0


def _cmd_attack(args) -> int:
    g = load_graph(args.graph)
    spec = AttackSpec(args.kind, args.k, args.seed)
    bad = generate_attack(spec, g)
    Path(args.out).write_text("\n".join(str(v) for v in bad.tolist()) + "\n",
                              encoding="utf-8")
    print(f"attack {args.kind}: |B|={bad.size} -> {args.out}")
    return 0


def _cmd_certify(args) -> int:
    g = load_graph(args.graph)
    bad = _load_bad(args.bad, g.n) if args.bad else np.empty(0, dtype=np.int64)
    report = certify(g, bad, pair_budget=args.pairs, seed=args.seed)
    payload = report.as_dict()
    payload["manifest"] = _manifest(args, [args.graph, args.bad])
    if args.out:
        _write_json(args.out, payload)
    status = "PASS" if report.passed else "FAIL"
    print(f"certify: {status} |B|={report.k} |B+|={report.bplus_size} "
          f"bound={report.bound:.1f} failing={report.failing_outside}")
    return 0 if report.passed else 1


def _cmd_loss_curve(args) -> int:
    g = load_graph(args.graph)
    k_list = [int(tok) for tok in args.k_list.split(",") if tok]
    rows = loss_curve(g, args.kind, k_list, args.trials, seed=args.seed,
                      pair_budget=args.pairs)
    write_loss_csv(rows, args.out)
    worst = max((r["ratio"] for r in rows if r["trial"] == "aggregate"), default=0.0)
    print(f"loss-curve: {len(rows)} rows, worst |B+|/k = {worst:.2f} -> {args.out}")
    return 0


def _cmd_lso(args) -> int:
    if args.action == "inspect":
        family = build_ordering_family(args.d, args.sigma)
        shape = family.shape
        print(f"M = {family.M}")
        print(f"shift lattice: {shape['lattice']}^{args.d} over denominator "
              f"{shape['lattice_denominator']}, {shape['reflections']} reflections")
        print(f"step scales t = {shape['t_min']}..{shape['t_max']}, "
              f"offset band [{shape['band'][0]:.2f}, {shape['band'][1]:.2f}]")
        return 0
    # check
    at_least(args.pairs, "pairs", 1)
    pts = load_points(args.points)
    family = build_ordering_family(pts.d, args.sigma)
    rng = substream(args.seed, "lso-cli")
    found = 0
    for trial in range(args.pairs):
        i, j = rng.choice(pts.n, size=2, replace=False)
        res = check_lso_property(family, pts.normed[i], pts.normed[j],
                                 sample_count=args.samples, points=pts.normed,
                                 seed=args.seed + trial)
        found += res.ok
    rate = found / args.pairs
    print(f"lso check: {found}/{args.pairs} pairs found a witness ({rate:.1%}), M={family.M}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spanner",
        description="Reliable geometric spanners: builders, shadows, attacks, certification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="build a spanner")
    b = p_build.add_subparsers(dest="target", required=True)
    p = b.add_parser("1d-const", help="block-tree 1D exact spanner")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--xi", default="1/16")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--override-c", type=int, default=None)
    p.add_argument("-o", "--out", required=True)
    p = b.add_parser("1d-theta", help="shifted-interval 1D exact spanner")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--theta", required=True)
    p.add_argument("--c", type=int, default=512)
    p.add_argument("--mode", choices=["faithful", "experimental"], default="faithful")
    p.add_argument("--override-c", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--out", required=True)
    p = b.add_parser("hd", help="ordering-union spanner")
    p.add_argument("--points", required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--theta", required=True)
    p.add_argument("--variant", choices=["simple", "improved"], default="improved")
    p.add_argument("--c2", type=int, default=16)
    p.add_argument("--sub-c", type=int, default=512)
    p.add_argument("--sub-mode", choices=["faithful", "experimental"], default="faithful")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--out", required=True)
    p = b.add_parser("bounded-spread", help="quadtree/WSPD spanner")
    p.add_argument("--points", required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--theta", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--out", required=True)

    p_exp = sub.add_parser("expander", help="build an expander")
    e = p_exp.add_subparsers(dest="flavor", required=True)
    p = e.add_parser("bipartite")
    p.add_argument("--left", type=int, required=True)
    p.add_argument("--right", type=int, required=True)
    p.add_argument("--xi", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--verify", type=_verify_arg(("exhaustive", "sampled"), 200))
    p.add_argument("--max-attempts", type=int, default=20)
    p.add_argument("--override-c", type=int, default=None)
    p.add_argument("-o", "--out", required=True)
    p = e.add_parser("strong")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--verify", type=_verify_arg(("exhaustive", "sampled"), 200))
    p.add_argument("--override-c", type=int, default=None)
    p.add_argument("-o", "--out", required=True)
    p = e.add_parser("reliable")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--theta", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--verify", type=_verify_arg(("sampled",), 100))
    p.add_argument("--override-c", type=int, default=None)
    p.add_argument("-o", "--out", required=True)

    p_sh = sub.add_parser("shadow", help="shadow computations")
    s = p_sh.add_subparsers(dest="variant", required=True)
    p = s.add_parser("1d")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--bad", required=True)
    p.add_argument("--side", choices=["left", "right", "both"], default="both")
    p.add_argument("-o", "--out", required=True)
    p = s.add_parser("quadtree")
    p.add_argument("--points", required=True)
    p.add_argument("--gamma", required=True)
    p.add_argument("--bad", required=True)
    p.add_argument("-o", "--out", required=True)
    p = s.add_parser("balls")
    p.add_argument("--points", required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--bad", required=True)
    p.add_argument("-o", "--out", required=True)
    p = s.add_parser("cones")
    p.add_argument("--points", required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--bad", required=True)
    p.add_argument("-o", "--out", required=True)

    p = sub.add_parser(
        "attack", help="generate a failure set",
        description="Generate a failure set B of k vertices, 0 <= k <= n. greedy-shadow "
                    "adds, k times, the vertex whose failure most enlarges a shadow of B "
                    "and stops once that shadow holds every vertex. On line graphs that "
                    "is the certificate's cert_alpha 1D shadow, on bounded-spread graphs "
                    "the certificate's gamma-quadtree shadow; on hd graphs it is only a "
                    "proxy, the quadtree shadow at gamma = 1 - theta/2, since certify "
                    "uses the ordering-union shadow there.")
    p.add_argument("--graph", required=True)
    p.add_argument("--kind", required=True,
                   choices=["random", "prefix", "interval", "ball", "greedy-shadow"])
    p.add_argument("--k", type=int, required=True, help="failure set size, 0 <= k <= n")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--out", required=True)

    p = sub.add_parser("certify", help="certify reliability under a failure set")
    p.add_argument("--graph", required=True)
    p.add_argument("--bad", default=None)
    p.add_argument("--pairs", type=int, default=10 ** 6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--out", default=None)

    p = sub.add_parser("loss-curve", help="loss statistics over attack sweeps")
    p.add_argument("--graph", required=True)
    p.add_argument("--kind", required=True)
    p.add_argument("--k-list", required=True)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--pairs", type=int, default=10 ** 6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--out", required=True)

    p_lso = sub.add_parser("lso", help="ordering family tools")
    l = p_lso.add_subparsers(dest="action", required=True)
    p = l.add_parser("inspect")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--sigma", type=float, required=True)
    p = l.add_parser("check")
    p.add_argument("--points", required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--pairs", type=int, default=100)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    return parser


_HANDLERS = {
    "build": _cmd_build,
    "expander": _cmd_expander,
    "shadow": _cmd_shadow,
    "attack": _cmd_attack,
    "certify": _cmd_certify,
    "loss-curve": _cmd_loss_curve,
    "lso": _cmd_lso,
}


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    args._argv = list(argv)
    try:
        return _HANDLERS[args.command](args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
