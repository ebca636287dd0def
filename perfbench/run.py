"""Benchmark of relspan's build -> save/load -> attack -> certify pipeline.

    python3 perfbench/run.py --workload line --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 0

Run it from the root of a checkout.  Each workload runs in its own fresh
single-threaded interpreter (workload.py), one workload at a time.  With
--trace 0 the run measures set-up in several interpreters and the pipeline
in one more, which runs whole rounds for --seconds, and prints the
end-to-end metrics, each stage's time taken from the slow end of its
rounds.  With --trace 1 it runs the workload untraced and then traced, and
prints the per-layer metrics and the tracing overhead.  Every metric is printed by name with its unit, then the
sha256 of the workload's canonical edge list, and as the last line one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_PY = HERE / "workload.py"
REFERENCE_HASHES = HERE / "reference_hashes.json"

SPEC = ROOT / "BENCHMARK.json"  # the workloads, and each metric's name and unit
SETUP_RUNS = 2  # set-up-only interpreters; the measuring one gives a third sample
RUN_LIMIT_S = 175  # one workload's interpreters together end within this
MIB = float(1 << 20)

# per-layer metric -> (traced name, field of its record); the per-layer
# metrics not listed here are derived in measure_traced
LAYER_SOURCES = {
    "graph_core.from_pairs.self_s": ("graph_core.from_pairs", "self_s"),
    "graph_core.sink_add.self_s": ("graph_core.sink_add", "self_s"),
    "graph_core.sink_add.calls": ("graph_core.sink_add", "calls"),
    "graph_core.sink_extract.self_s": ("graph_core.sink_extract", "self_s"),
    "graph_core.sink_pairs_emitted": ("graph_core.sink_add", "pairs"),
    "graph_core.sink_edges_extracted": ("graph_core.sink_extract", "edges"),
    "graph_core.right_bits.self_s": ("graph_core.right_bits", "self_s"),
    "graph_core.monotone_reach_bits.self_s": ("graph_core.monotone_reach_bits", "self_s"),
    "graph_core.monotone_reach_bits.calls": ("graph_core.monotone_reach_bits", "calls"),
    "graph_core.shortest_path_matrix.self_s": ("graph_core.shortest_path_matrix", "self_s"),
    "graph_core.shortest_path_matrix.sources": ("graph_core.shortest_path_matrix", "sources"),
    "graph_core.save_edges.self_s": ("graph_core.save_edges", "self_s"),
    "graph_core.load_edge_list.self_s": ("graph_core.load_edge_list", "self_s"),
    "cli.save_graph.self_s": ("cli.save_graph", "self_s"),
    "cli.load_graph.self_s": ("cli.load_graph", "self_s"),
    "streams.substream.self_s": ("streams.substream", "self_s"),
    "streams.substream.calls": ("streams.substream", "calls"),
    "expanders.bipartite_into_sink.self_s": ("expanders.bipartite_into_sink", "self_s"),
    "expanders.bipartite_into_sink.calls": ("expanders.bipartite_into_sink", "calls"),
    "spanner1d.build_G_theta.self_s": ("spanner1d.build_G_theta", "self_s"),
    "spanner1d.one_path_coverage.self_s": ("spanner1d.one_path_coverage", "self_s"),
    "shadow.shadow_1d.self_s": ("shadow.shadow_1d", "self_s"),
    "shadow.shadow_1d.calls": ("shadow.shadow_1d", "calls"),
    "shadow.shadow_quadtree.self_s": ("shadow.shadow_quadtree", "self_s"),
    "shadow.shadow_quadtree.calls": ("shadow.shadow_quadtree", "calls"),
    "quadtree.build_quadtree.self_s": ("quadtree.build_quadtree", "self_s"),
    "quadtree.build_quadtree.calls": ("quadtree.build_quadtree", "calls"),
    "quadtree.build_wspd.self_s": ("quadtree.build_wspd", "self_s"),
    "quadtree.wspd_pairs": ("quadtree.build_wspd", "pairs"),
    "quadtree.wspd_point_pair_counts.self_s": ("quadtree.wspd_point_pair_counts", "self_s"),
    "lso.family_size.self_s": ("lso.family_size", "self_s"),
    "lso.family_size.calls": ("lso.family_size", "calls"),
    "spanner_euclidean.build_bounded_spread_spanner.self_s":
        ("spanner_euclidean.build_bounded_spread_spanner", "self_s"),
    "spanner_euclidean.build_hd_spanner.self_s":
        ("spanner_euclidean.build_hd_spanner", "self_s"),
    "spanner_euclidean.hd_config.self_s": ("spanner_euclidean.hd_config", "self_s"),
    "harness.generate_attack.self_s": ("harness.generate_attack", "self_s"),
    "harness.certify.self_s": ("harness.certify", "self_s"),
    "harness.certify.pairs_checked": ("harness.certify", "pairs_checked"),
}


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def spawn(workload: str, seed: int, *extra: str, deadline: float | None = None) -> dict:
    """Run workload.py in a fresh interpreter, stopping it at the monotonic
    time deadline; returns its JSON result."""
    cmd = [sys.executable, str(WORKLOAD_PY), "--workload", workload, "--seed", str(seed),
           *extra]
    timeout = None if deadline is None else max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                              text=True, timeout=timeout, check=False)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: no result within {RUN_LIMIT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: {' '.join(cmd[1:])} exited with {proc.returncode}")
    return json.loads(lines[-1])


def slow_end(values: list, rate: bool = False) -> float:
    """The slow end of a run's per-round figures: the 90th percentile of the
    round times, the 10th of the round rates.  On a shared host the slowest
    rounds read alike from run to run, while how fast the fastest ones go
    varies with the other guests' load (see the README)."""
    if len(values) < 2:
        return values[0]
    deciles = statistics.quantiles(values, n=10, method="inclusive")
    return deciles[0] if rate else deciles[-1]


def measure(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    """Untraced run: set-up samples, then the measuring interpreter."""
    deadline = time.monotonic() + RUN_LIMIT_S
    setups = []
    for _ in range(SETUP_RUNS):
        setups.append(spawn(workload, seed, "--setup-only", deadline=deadline)["setup_s"])
    res = spawn(workload, seed, "--seconds", str(seconds), "--trace", "0", deadline=deadline)
    if res["rounds"] == 0:
        raise BenchError(f"{workload}: no round completed; problems: {res['problems']}")
    setups.append(res["setup_s"])
    times = {key: slow_end(vals, key == "pairs_per_s") for key, vals in res["times"].items()}
    metrics = {
        "setup_s": statistics.median(setups),
        "build_s": times["build_s"],
        "roundtrip_s": times["roundtrip_s"],
        "audit_s": times["audit_s"],
        "total_s": times["total_s"],
        "certify_pairs_per_s": times["pairs_per_s"],
        "peak_rss_mb": res["peak_rss_mb"],
        "edges_per_vertex": res["edges"] / res["n"],
        "saved_mb": res["saved_bytes"] / MIB,
    }
    return metrics, res


def measure_traced(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    """Untraced, then traced run; per-layer metrics from the traced one."""
    deadline = time.monotonic() + RUN_LIMIT_S
    plain = spawn(workload, seed, "--seconds", str(seconds), "--trace", "0", deadline=deadline)
    res = spawn(workload, seed, "--seconds", str(seconds), "--trace", "1", deadline=deadline)
    if plain["rounds"] == 0 or res["rounds"] == 0:
        raise BenchError(f"{workload}: no round completed; problems: {res['problems']}")
    stats = res["trace"]
    absent = list(res["absent"])
    metrics = {}
    for name, (traced, field) in LAYER_SOURCES.items():
        if traced not in stats:
            absent.append(traced)
            metrics[name] = 0.0
        else:
            metrics[name] = stats[traced].get(field, 0.0)
    emitted = metrics["graph_core.sink_pairs_emitted"]
    metrics["graph_core.sink_useful_ratio"] = (
        metrics["graph_core.sink_edges_extracted"] / emitted if emitted else 0.0)
    traced_total = slow_end(res["times"]["total_s"])
    untraced_total = slow_end(plain["times"]["total_s"])
    metrics.update({"trace.total_s": traced_total, "trace.untraced_total_s": untraced_total,
                    "trace.overhead_s": traced_total - untraced_total})
    res["absent"] = sorted(set(absent))
    res["attempted"] += plain["attempted"]
    res["failed"] += plain["failed"]
    res["problems"] = plain["problems"] + res["problems"]
    if plain["edges_sha256"] != res["edges_sha256"]:
        res["problems"].append("the traced and the untraced run built different edge lists")
    res["correct"] = plain["correct"] and res["correct"] and not res["problems"]
    return metrics, res


def reference_note(workload: str, seed: int, digest: str) -> str:
    try:
        stored = json.loads(REFERENCE_HASHES.read_text())[workload].get(str(seed))
    except (OSError, KeyError, ValueError):
        stored = None
    if stored is None:
        return "no reference stored for this seed"
    return "matches the reference" if stored == digest else "DIFFERS from the reference"


def report(workload: str, seed: int, metrics: dict, units: dict, res: dict) -> None:
    print(f"{workload}: seed {seed}, {res['rounds']} round(s), attempted {res['attempted']}, "
          f"failed {res['failed']}, correct {str(res['correct']).lower()}")
    for problem in res["problems"]:
        print(f"{workload}: problem: {problem}")
    for name in res.get("absent", []):
        print(f"{workload}: absent: {name} is not in relspan any more")
    for name, value in metrics.items():
        print(f"{workload}: {name} = {value:.6g} {units[name]}")
    if {"graph_core.sink_useful_ratio", "graph_core.sink_edges_extracted",
            "graph_core.sink_pairs_emitted"} <= metrics.keys():
        print(f"{workload}: sink useful ratio = {metrics['graph_core.sink_edges_extracted']:.0f}"
              f" edges / {metrics['graph_core.sink_pairs_emitted']:.0f} pairs emitted")
    digest = res["edges_sha256"]
    print(f"{workload}: edges_sha256 {digest} ({reference_note(workload, seed, digest)})")


def load_spec() -> dict:
    """BENCHMARK.json, with a missing file reported as a BenchError."""
    try:
        return json.loads(SPEC.read_text())
    except OSError as exc:
        raise BenchError(f"cannot read {SPEC}: {exc}") from exc


def main(argv=None) -> int:
    try:
        spec = load_spec()
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=25,
                        help="pipeline time to measure; whole rounds, at least one")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "relspan" / "__init__.py").is_file():
        print(f"run.py: no relspan sources under {ROOT / 'src'}; run it from the root "
              "of a relspan checkout", file=sys.stderr)
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    names = workloads if args.workload == "all" else [args.workload]
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            run_one = measure_traced if args.trace else measure
            computed, res = run_one(name, args.seed, args.seconds)
            unknown = sorted(set(units) - set(computed))
            if unknown:
                raise BenchError(f"BENCHMARK.json names metrics run.py does not compute: "
                                 f"{', '.join(unknown)}")
            metrics = {key: computed[key] for key in units}
            report(name, args.seed, metrics, units, res)
            total["correct"] = total["correct"] and res["correct"]
            total["attempted"] += res["attempted"]
            total["failed"] += res["failed"]
            prefix = f"{name}." if len(names) > 1 else ""
            total["metrics"].update({prefix + key: {"value": val, "unit": units[key]}
                                     for key, val in metrics.items()})
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
