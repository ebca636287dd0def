"""Recompute the edge-list hashes of the workloads from scratch.

    python3 perfbench/hashes.py           # compare with reference_hashes.json
    python3 perfbench/hashes.py --write   # store them as the reference

Each workload is built once per seed 1, 2 and 3 in a fresh interpreter.
The stored hashes let a change that claims a speed-up show that its output
did not change; they are for reference and never serve as a correctness
check.
Exits 1 when a recomputed hash differs from a stored one.
"""

from __future__ import annotations

import argparse
import json
import sys

import run

SEEDS = (1, 2, 3)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help="store the recomputed hashes in reference_hashes.json")
    args = parser.parse_args(argv)
    try:
        stored = json.loads(run.REFERENCE_HASHES.read_text())
    except FileNotFoundError:
        stored = {}
    differs = 0
    for name in (w["name"] for w in run.load_spec()["workloads"]):
        for seed in SEEDS:
            res = run.spawn(name, seed, "--hash-only")
            digest = res["edges_sha256"]
            old = stored.setdefault(name, {}).get(str(seed))
            status = "new" if old is None else "same" if old == digest else "DIFFERS"
            differs += status == "DIFFERS"
            print(f"{name} seed {seed}: {digest} {res['edges']} edges ({status})")
            stored[name][str(seed)] = digest
    if args.write:
        run.REFERENCE_HASHES.write_text(json.dumps(stored, indent=2, sort_keys=True) + "\n")
        print(f"wrote {run.REFERENCE_HASHES.name}")
        return 0
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
