"""Command-line entry points: run, synth, summarize."""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .errors import DyadcastError
from .harness import (
    ExperimentConfig,
    aggregate_rows,
    load_config,
    load_run_inputs,
    read_cells_csv,
    run_experiment,
    write_aggregate_csv,
    write_outputs,
)
from .store import load_json
from .synth import SyntheticSpec, generate_synthetic, save_synthetic


def _print_aggregate(rows) -> None:
    def cell(x):
        return "NA" if isinstance(x, float) and math.isnan(x) else f"{x:.4f}"

    header = f"{'lag':>3} {'spec':<16} {'learner':<12} {'n':>3} "
    header += f"{'auc_pr':>8} {'pr_lo':>8} {'pr_hi':>8} {'auc_roc':>8} {'roc_lo':>8} {'roc_hi':>8}"
    print(header)
    for r in rows:
        print(
            f"{r.lag:>3} {r.spec_class:<16} {r.learner:<12} {r.n_periods:>3} "
            f"{cell(r.mean_auc_pr):>8} {cell(r.pr_lo):>8} {cell(r.pr_hi):>8} "
            f"{cell(r.mean_auc_roc):>8} {cell(r.roc_lo):>8} {cell(r.roc_hi):>8}"
        )


def _fit_tally(models) -> str:
    """How many fits stopped short: a logit, elastic-net or neural-net fit
    at its iteration cap or a collapsed step (a logitboost fit's cap is
    every round fitted), a fit with a clipped or capped report, and a tuned
    fit whose choice sat on a grid boundary."""
    short = capped = boundary = 0
    for model in models.values():
        short += model.kind != "logitboost" and model.stop in ("cap", "step")
        capped += model.capped > 0
        boundary += model.diagnostics.get("tuning", {}).get("at_boundary", False)
    return (
        f"{short} fits stopped at a cap or step, {capped} capped, "
        f"{boundary} tuned to a grid boundary"
    )


def _cmd_run(args) -> int:
    config = load_config(args.config)
    panel, covariates = load_run_inputs(config)
    result = run_experiment(config, panel, covariates)
    paths = write_outputs(result)
    counts = {"ok": 0, "skip": 0, "error": 0}
    for c in result.cells:
        counts[c.status] += 1
    print(
        f"{counts['ok']} cells evaluated, {counts['skip']} skipped, "
        f"{counts['error']} errored"
    )
    print(_fit_tally(result.models))
    for c in result.cells:
        if c.status == "error":
            print(f"error {'-'.join(map(str, c.key()))}: {c.reason}", file=sys.stderr)
    _print_aggregate(result.aggregate)
    print("outputs: " + ", ".join(paths[k] for k in ("cells", "aggregate", "ratios")))
    return 1 if result.errored() else 0


def _cmd_synth(args) -> int:
    spec = SyntheticSpec.from_json(load_json(args.spec, "spec"))
    panel, table, truth = generate_synthetic(spec)
    paths = save_synthetic(panel, table, args.out)
    print(
        f"{len(panel.events)} events over {spec.periods} periods "
        f"({truth.rate:.4f} events per dyad-period, attempt {truth.attempts})"
    )
    print("outputs: " + ", ".join(paths.values()))
    return 0


def _cmd_summarize(args) -> int:
    run_dir = Path(args.in_dir)
    config = load_config(run_dir / "config.json")
    cells = read_cells_csv(run_dir / "cells.csv")
    rows = aggregate_rows(config, cells)
    write_aggregate_csv(run_dir / "aggregate.csv", rows)
    _print_aggregate(rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dyadcast",
        description="Out-of-sample forecasting benchmarks on dyadic event panels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a configured experiment")
    p_run.add_argument("--config", required=True, help="experiment config JSON")
    p_run.set_defaults(func=_cmd_run)

    p_synth = sub.add_parser("synth", help="generate a synthetic panel")
    p_synth.add_argument("--spec", required=True, help="synthetic spec JSON")
    p_synth.add_argument("--out", required=True, help="output directory")
    p_synth.set_defaults(func=_cmd_synth)

    p_sum = sub.add_parser("summarize", help="rebuild aggregate.csv from a run directory")
    p_sum.add_argument("--in", dest="in_dir", required=True, help="run output directory")
    p_sum.set_defaults(func=_cmd_summarize)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DyadcastError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
