"""dyadcast benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--size full|smoke]

Run from the repository root; the program is imported from ./src. Steps:

1. Generate the workload's synthetic world from --seed with
   generate_synthetic + save_synthetic (untimed; the program only ever
   receives the CSV files).
2. Repeat the workload in fresh worker processes (worker.py) until
   --seconds have been spent, at least twice. Each process starts with a
   cold BundleCache, one BLAS thread and no DYADCAST_CACHE_DIR.
3. Check the outputs: every repetition must write byte-identical
   cells.csv, aggregate.csv and ratios.csv, and its cells must match the
   stored reference for this seed (reference/<workload>.json). For a seed
   with no stored reference, the smoke-size world of seed 0 is run once
   more and checked against its reference instead.
4. With --trace 0 print the end-to-end metrics (medians over the
   repetitions); with --trace 1 alternate untraced and traced
   repetitions and print the per-layer metrics derived from the spans
   (medians over the traced ones) and the tracing overhead.

Human-readable lines come first; the last line of stdout is the JSON
result. Exits non-zero without a result when the program cannot run.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spans import layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_REPS = 2
BLAS_THREADS = "1"
AUC_TOL = 1e-9
RUN_DEADLINE_S = 170.0
REFERENCE_DIR = HERE / "reference"
CANARY_SEED = 0
OUTPUT_FILES = ("cells.csv", "aggregate.csv", "ratios.csv")
# The metrics to print, with their units: "end_to_end" for --trace 0,
# "per_layer" for --trace 1.
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())

class BenchError(Exception):
    """The program could not be run; no result is printed."""


def read_cells(path) -> list:
    """cells.csv rows as [period, lag, spec, learner, status, auc_pr, auc_roc]."""
    rows = []
    with open(path, newline="") as fh:
        for r in csv.DictReader(fh):
            status = "error" if r["error"] else "skip" if r["skip"] else "ok"
            auc = [None if r[k] == "NA" else float(r[k]) for k in ("auc_pr", "auc_roc")]
            rows.append([int(r["period"]), int(r["lag"]), r["spec"], r["learner"], status, *auc])
    return rows


def _same(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return abs(a - b) <= AUC_TOL


def failed_cells(rows, reference) -> int:
    """Cells that errored or differ from the reference (status or AUCs),
    plus reference cells the run did not produce."""
    ref = {tuple(r[:4]): r for r in reference}
    failed = len(set(ref) - {tuple(r[:4]) for r in rows})
    for r in rows:
        want = ref.get(tuple(r[:4]))
        match = want is not None and r[4] == want[4] and _same(r[5], want[5]) and _same(r[6], want[6])
        failed += r[4] == "error" or not match
    return failed


def load_reference(workload: str, size: str) -> dict:
    path = REFERENCE_DIR / f"{workload}.json"
    if not path.is_file():
        return {}
    with open(path) as fh:
        return json.load(fh).get(size, {})


def describe(name: str, values) -> None:
    """Print a timing's sample count, median and quartiles."""
    q1 = q3 = values[0]
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    print(
        f"{name} samples={len(values)} median={statistics.median(values):.4f} "
        f"q1={q1:.4f} q3={q3:.4f} values={[round(x, 4) for x in values]}"
    )


class Bench:
    """Generates worlds and runs repetitions of one workload, each in a
    fresh worker process with a clean environment, under one deadline."""

    def __init__(self, root: Path, workdir: Path, workload):
        self.root = root
        self.workdir = workdir
        self.workload = workload
        self.started = time.perf_counter()
        self.env = dict(os.environ)
        self.env.pop("DYADCAST_CACHE_DIR", None)
        self.env["PYTHONPATH"] = str(root / "src")
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = BLAS_THREADS
        self.n_runs = 0

    def make_world(self, seed: int, size: str, name: str) -> tuple:
        """Generate and save one world; returns (config dict, info)."""
        from dyadcast import SyntheticSpec, generate_synthetic, save_synthetic

        spec = SyntheticSpec.from_json(self.workload.world_spec(seed, size))
        t0 = time.perf_counter()
        panel, table, truth = generate_synthetic(spec)
        t1 = time.perf_counter()
        paths = save_synthetic(panel, table, self.workdir / name)
        t2 = time.perf_counter()
        config = dict(self.workload.experiment_config(size), master_seed=seed, **{
            k: paths[k] for k in ("events", "registry", "covariates")
        })
        info = {
            "events": len(panel.events),
            "rate": truth.rate,
            "generate_s": t1 - t0,
            "save_s": t2 - t1,
        }
        return config, info

    def repetition(self, config: dict, traced: bool = False) -> dict:
        """Run one worker process on config; returns its timings plus the
        output directory."""
        n = self.n_runs
        self.n_runs += 1
        out_dir = self.workdir / f"rep{n}"
        cfg_path = self.workdir / f"rep{n}.json"
        with open(cfg_path, "w") as fh:
            json.dump(dict(config, output_dir=str(out_dir)), fh)
        result_path = self.workdir / f"rep{n}-result.json"
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--config", str(cfg_path),
            "--result", str(result_path),
        ]
        spans_path = self.workdir / f"rep{n}-spans.json"
        if traced:
            cmd += ["--spans", str(spans_path)]
        remaining = RUN_DEADLINE_S - (time.perf_counter() - self.started)
        if remaining <= 0:
            raise BenchError("out of time before the minimum repetitions ran")
        try:
            proc = subprocess.run(
                cmd, cwd=self.root, env=self.env, capture_output=True, text=True,
                timeout=remaining,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"repetition {n} did not finish within the run deadline")
        if proc.returncode != 0:
            raise BenchError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        with open(result_path) as fh:
            out = json.load(fh)
        out["dir"] = out_dir
        if traced:
            with open(spans_path) as fh:
                out["spans"] = json.load(fh)
        return out

    def repeat(self, config: dict, seconds: float, trace: bool) -> list:
        """Repetitions until another would overrun `seconds`, at least
        MIN_REPS. With trace, untraced and traced repetitions alternate so
        that both see the same machine conditions."""
        reps = []
        t0 = time.perf_counter()
        while True:
            r0 = time.perf_counter()
            reps.append(self.repetition(config, traced=trace and len(reps) % 2 == 1))
            last = time.perf_counter() - r0
            if len(reps) >= MIN_REPS and time.perf_counter() - t0 + last > seconds:
                return reps


def outputs_identical(reps) -> bool:
    first = reps[0]["dir"]
    return all(
        (r["dir"] / name).read_bytes() == (first / name).read_bytes()
        for r in reps[1:]
        for name in OUTPUT_FILES
    )


def run(args, root: Path, workdir: Path) -> dict:
    workload = WORKLOADS[args.workload]
    bench = Bench(root, workdir, workload)
    config, world = bench.make_world(args.seed, args.size, "world")
    print(
        f"workload={workload.name} size={args.size} seed={args.seed} "
        f"events={world['events']} rate={world['rate']:.4f} "
        f"nproc={len(os.sched_getaffinity(0))} blas_threads={BLAS_THREADS}"
    )

    reps = bench.repeat(config, args.seconds, bool(args.trace))
    untraced = [r for r in reps if "spans" not in r]
    traced = [r for r in reps if "spans" in r]

    attempted = failed = 0
    reference = load_reference(workload.name, args.size)
    rows_by_rep = [read_cells(r["dir"] / "cells.csv") for r in reps]
    if str(args.seed) in reference:
        checks = [(rows, reference[str(args.seed)]) for rows in rows_by_rep]
    else:
        canary_ref = load_reference(workload.name, "smoke").get(str(CANARY_SEED))
        if canary_ref is None:
            raise BenchError(f"no smoke reference for {workload.name} seed {CANARY_SEED}")
        canary_config, _ = bench.make_world(CANARY_SEED, "smoke", "canary")
        canary = bench.repetition(canary_config)
        print(f"no stored reference for seed {args.seed}; checked the smoke world of seed {CANARY_SEED}")
        checks = [(read_cells(canary["dir"] / "cells.csv"), canary_ref)]
        attempted += sum(len(rows) for rows in rows_by_rep)
        failed += sum(r[4] == "error" for rows in rows_by_rep for r in rows)
    for rows, ref in checks:
        attempted += len(rows)
        failed += failed_cells(rows, ref)
    deterministic = outputs_identical(reps)
    print(f"outputs byte-identical across {len(reps)} repetitions: {deterministic}")

    exp = [r["experiment_s"] for r in untraced]
    describe("experiment_s", exp)
    ok_rows = [r for r in rows_by_rep[0] if r[4] == "ok"]
    if args.trace:
        traced_exp = [r["experiment_s"] for r in traced]
        describe("traced experiment_s", traced_exp)
        overhead = statistics.median(traced_exp) - statistics.median(exp)
        layers = [layer_metrics(r["spans"]) for r in traced]
        metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        for status in ("ok", "skip", "error"):
            metrics[f"harness.cells.{status}"] = reps[0]["cells"][status]
        metrics["synth.generate_s"] = world["generate_s"]
        metrics["synth.save_s"] = world["save_s"]
        metrics["trace.overhead_s"] = overhead
    else:
        setups = [r["setup_s"] for r in reps]
        describe("setup_s", setups)
        metrics = {
            "experiment_s": statistics.median(exp),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
            "mean_auc_pr": statistics.fmean(r[5] for r in ok_rows) if ok_rows else 0.0,
            "mean_auc_roc": statistics.fmean(r[6] for r in ok_rows) if ok_rows else 0.0,
            "passed_cell_share": 1.0 - failed / attempted if attempted else 0.0,
        }
    print(f"cells attempted={attempted} failed={failed}")
    emitted = {}
    for m in BENCHMARK["per_layer" if args.trace else "end_to_end"]:
        if m["name"] not in metrics:
            raise BenchError(f"metric {m['name']} in BENCHMARK.json is not measured")
        emitted[m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
        print(f"{m['name']} = {metrics[m['name']]:.6g} {m['unit']}")
    return {
        "correct": deterministic and failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": emitted,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="dyadcast benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "dyadcast" / "__init__.py").is_file():
        print("error: ./src/dyadcast not found; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS

    workdir = root / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result = run(args, root, workdir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
