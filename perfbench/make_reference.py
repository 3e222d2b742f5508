"""Record reference cells for the benchmark's correctness check.

    python3 perfbench/make_reference.py --workload NAME --size full|smoke --seeds 0-23

Run from the repository root on a commit whose results are trusted. Each
seed's world is generated and run once, exactly as run.py does, and its
cells.csv (status and AUCs per cell) is merged into
perfbench/reference/<workload>.json under the size and seed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

from run import REFERENCE_DIR, Bench, read_cells
from workloads import WORKLOADS


def parse_seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="record benchmark reference cells")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--seeds", required=True, help="N or LO-HI, inclusive")
    args = parser.parse_args(argv)

    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    path = REFERENCE_DIR / f"{args.workload}.json"
    store = json.loads(path.read_text()) if path.is_file() else {}
    workdir = root / ".perfbench-work" / f"reference-{args.workload}-{os.getpid()}"
    try:
        for seed in parse_seeds(args.seeds):
            bench = Bench(root, workdir / str(seed), WORKLOADS[args.workload])
            config, _ = bench.make_world(seed, args.size, "world")
            rep = bench.repetition(config)
            store.setdefault(args.size, {})[str(seed)] = read_cells(rep["dir"] / "cells.csv")
            print(f"{args.workload} {args.size} seed {seed}: {rep['cells']}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    REFERENCE_DIR.mkdir(exist_ok=True)
    with open(path, "w") as fh:
        json.dump(store, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
