"""One benchmark workload, run in a fresh single-threaded interpreter.

The process imports relspan from the checkout's src/, generates the
workload's inputs from --seed, then runs whole rounds of the pipeline a
library user runs (build, cli.save_graph + cli.load_graph, and
generate_attack + certify for each attack of the workload) until the rounds
have measured --seconds of pipeline time.  Every round's outputs are
checked after its timed part.  The last line of stdout is one JSON object
that run.py turns into metrics.

    python3 perfbench/workload.py --workload line --seed 1 --seconds 25 --trace 0
    python3 perfbench/workload.py --workload plane --seed 1 --setup-only
    python3 perfbench/workload.py --workload space --seed 1 --hash-only
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

import checks
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# Stage times are the process's CPU time, user plus system.  The process is
# single-threaded, so on an idle machine this is its wall time; on a shared
# virtual machine it leaves out the stretches in which the vCPU runs another
# guest, which made a fixed loop's wall time swing from 0.39 s to 0.90 s
# while its CPU time stayed within 0.38-0.53 s.
clock = time.process_time

JITTER = 0.3  # grid points move at most this far per axis, so none coincide
PAIR_SOURCES = 32  # sampled sources per attack in the pair checks


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    theta: Fraction
    epsilon: float | None  # None on the line, where paths are exact
    attacks: tuple  # (kind, k) pairs, run in this order
    grid: tuple | None  # shape of the jittered grid; None on the line

    @property
    def ops_per_round(self) -> int:
        # build, round trip, every attack + certify, then the checks:
        # canonical, reload, and per attack its ids, its report, its pairs
        # and, on line and plane, the recomputed shadow
        return 4 + len(self.attacks) * (4 + (self.name != "space"))


# Sizes at which one round takes a second or two, so that a run makes
# enough rounds for their slow end, which run.py reports, to read alike
# from run to run on a shared machine (see the README).  The ordering-union
# workload is planar: in R^3 one count of its ordering family takes 17 s.
WORKLOADS = {
    "line": Workload("line", 1024, Fraction(1, 2), None,
                     (("random", 16), ("interval", 64), ("prefix", 256)), None),
    "plane": Workload("plane", 12 * 16, Fraction(1, 4), 0.5,
                      (("random", 32), ("ball", 32), ("greedy-shadow", 4)), (12, 16)),
    "space": Workload("space", 16 * 16, Fraction(1, 2), 0.99,
                      (("random", 16), ("ball", 16)), (16, 16)),
}


def derive(seed: int, label: str) -> int:
    """63-bit seed for one use of the workload seed."""
    digest = hashlib.sha256(f"{seed}/{label}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def make_points(wl: Workload, seed: int) -> np.ndarray | None:
    if wl.grid is None:
        return None
    rng = np.random.default_rng(derive(seed, f"{wl.name}/jitter"))
    cells = np.indices(wl.grid).reshape(len(wl.grid), -1).T.astype(np.float64)
    return cells + rng.uniform(-JITTER, JITTER, size=cells.shape)


def build(rs, wl: Workload, points, seed: int):
    if wl.name == "line":
        return rs.spanner1d.build_G_theta(wl.n, wl.theta, c=8, seed=seed,
                                          mode="experimental", degree_constant_override=1)
    if wl.name == "plane":
        return rs.spanner_euclidean.build_bounded_spread_spanner(points, wl.epsilon,
                                                                 wl.theta, seed=seed)
    return rs.spanner_euclidean.build_hd_spanner(points, wl.epsilon, wl.theta,
                                                 variant="improved", seed=seed, sub_c=8,
                                                 sub_mode="experimental")


def edges_sha256(g) -> str:
    """sha256 of the canonical edge list: n, u and v as little-endian int64,
    then the weights as little-endian float64.  It does not depend on the
    on-disk format."""
    h = hashlib.sha256(np.int64(g.n).astype("<i8").tobytes())
    for arr, dtype in ((g.u, "<i8"), (g.v, "<i8"), (g.w, "<f8")):
        h.update(np.ascontiguousarray(arr, dtype=dtype).tobytes())
    return h.hexdigest()


class Tally:
    """Operations attempted and failed, and what the checks found."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def done(self) -> None:
        self.attempted += 1

    def check(self, name: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{name}: {p}" for p in problems)


def timed_round(rs, wl: Workload, points, seed: int, workdir: Path, tally: Tally) -> dict:
    """Build, save and load back, then generate_attack + certify of every
    attack on the loaded graph.  Returns the stage times and the outputs."""
    t0 = clock()
    g = build(rs, wl, points, derive(seed, "build"))
    t1 = clock()
    tally.done()
    path = str(workdir / "graph.edges")
    rs.cli.save_graph(g, path, {"command": "perfbench", "workload": wl.name, "seed": seed})
    loaded = rs.cli.load_graph(path)
    t2 = clock()
    tally.done()
    attacks, audit_s, certify_s = [], 0.0, 0.0
    for kind, k in wl.attacks:
        spec = rs.harness.AttackSpec(kind, k, seed=derive(seed, f"attack/{kind}"))
        t3 = clock()
        bad = np.asarray(rs.harness.generate_attack(spec, loaded))
        t4 = clock()
        report = rs.harness.certify(loaded, bad, attack=spec)
        t5 = clock()
        tally.done()
        audit_s += t5 - t3
        certify_s += t5 - t4
        attacks.append((kind, k, bad, report))
    saved = Path(path).stat().st_size + Path(path + ".json").stat().st_size
    return {
        "times": {"build_s": t1 - t0, "roundtrip_s": t2 - t1, "audit_s": audit_s,
                  "total_s": t2 - t0 + audit_s, "certify_s": certify_s},
        "pairs": sum(report.pairs_checked for *_, report in attacks),
        "saved_bytes": saved, "graph": g, "loaded": loaded, "attacks": attacks,
    }


def check_round(wl: Workload, points, seed: int, out: dict, tally: Tally) -> None:
    g, loaded = out["graph"], out["loaded"]
    n = wl.n
    tally.check("canonical", checks.check_canonical(g, n, points))
    tally.check("roundtrip", checks.check_roundtrip(g, loaded))
    rng = np.random.default_rng(derive(seed, "check"))
    hop_cap = 2 * int(np.ceil(np.log2(n)))
    for kind, k, bad, report in out["attacks"]:
        tally.check(f"{kind} ids", checks.check_attack(bad, k, n, at_most=kind == "greedy-shadow"))
        tally.check(f"{kind} report", checks.check_report(report, bad.size, wl.theta))
        if wl.name == "line":
            bplus = checks.line_shadow(n, bad, 1 - wl.theta / 4)
            tally.check(f"{kind} shadow", checks.check_shadow_size(bplus, report))
            problems = checks.check_line_pairs(loaded, bad, bplus, hop_cap,
                                               PAIR_SOURCES, rng)
        elif wl.name == "plane":
            meta = loaded.meta
            normed = ((points - np.asarray(meta["norm_offset"])) * meta["norm_scale"]
                      + meta["norm_margin"])
            bplus = checks.cell_shadow(normed, bad, 1 - wl.theta / 2)
            tally.check(f"{kind} shadow", checks.check_shadow_size(bplus, report))
            problems = checks.check_stretch_pairs(loaded, points, bad, bplus,
                                                  wl.epsilon, PAIR_SOURCES, rng)
        elif report.bplus_size == bad.size:
            # B is inside B+ by definition, so equal sizes identify B+ = B;
            # the ordering-union shadow itself is not recomputed here
            problems = checks.check_stretch_pairs(loaded, points, bad, bad,
                                                  wl.epsilon, PAIR_SOURCES, rng)
        else:
            problems = [f"|B+|={report.bplus_size} > |B|: its members are unknown "
                        "to the check"]
        tally.check(f"{kind} pairs", problems)


def run(rs, wl: Workload, points, seed: int, seconds: float, tracer) -> dict:
    tally = Tally()
    times: dict[str, list] = {}
    result = {"rounds": 0, "peak_rss_mb": None, "edges_sha256": None}
    workdir = OUT / f"{wl.name}-{seed}-{int(time.time() * 1e6)}"
    workdir.mkdir(parents=True, exist_ok=True)
    measured = 0.0
    first_ids = None
    try:
        while measured < seconds:
            before = tally.attempted
            try:
                out = timed_round(rs, wl, points, seed, workdir, tally)
            except Exception:  # an operation of the program failed: count the round's rest
                traceback.print_exc(file=sys.stderr)
                rest = wl.ops_per_round - (tally.attempted - before)
                tally.attempted += rest
                tally.failed += rest
                break
            result["rounds"] += 1
            for key, val in out["times"].items():
                times.setdefault(key, []).append(val)
            times.setdefault("pairs_per_s", []).append(out["pairs"] / out["times"]["certify_s"])
            measured += out["times"]["total_s"]
            if result["peak_rss_mb"] is None:  # before any check has run; KiB on Linux
                result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            g = out["graph"]
            digest = edges_sha256(g)
            if result["edges_sha256"] not in (None, digest):
                tally.problems.append("the edge list differs between rounds of one seed")
            ids = [bad.tolist() for _, _, bad, _ in out["attacks"]]
            if first_ids is None:
                first_ids = ids
            elif ids != first_ids:
                tally.problems.append("generate_attack gave other ids than in the first round")
            result.update(edges_sha256=digest, n=g.n, edges=int(g.u.size),
                          saved_bytes=out["saved_bytes"])
            check_round(wl, points, seed, out, tally)
            del out, g
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result.update(times=times, attempted=tally.attempted, failed=tally.failed,
                  problems=tally.problems[:20], correct=not tally.problems)
    if tracer is not None:
        result["trace"] = tracer.per_round(max(1, result["rounds"]))
        result["absent"] = tracer.absent
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up and report when it ended")
    parser.add_argument("--hash-only", action="store_true",
                        help="build once and print the edge-list hash")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import relspan.cli
    import relspan.harness
    import relspan.spanner1d
    import relspan.spanner_euclidean

    wl = WORKLOADS[args.workload]
    points = make_points(wl, args.seed)
    setup_s = clock()  # CPU time since the process started
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if args.hash_only:
        g = build(relspan, wl, points, derive(args.seed, "build"))
        print(json.dumps({"edges_sha256": edges_sha256(g), "edges": int(g.u.size)}))
        return 0
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    result = run(relspan, wl, points, args.seed, args.seconds, tracer)
    result["setup_s"] = setup_s
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
