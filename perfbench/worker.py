"""One timed repetition of a workload, in a fresh process.

Runs the same steps as ``dyadcast run``, once each: load_config ->
load_run_inputs (the set-up, cold as in a user's run) -> run_experiment ->
write_outputs (the experiment). With ``--spans`` the public functions are wrapped by
``spans.installed`` and the spans are written to that file at exit.
Timings go to ``--result`` as JSON.

    python3 perfbench/worker.py --config CONFIG.json --result OUT.json [--spans SPANS.json]
"""

from __future__ import annotations

import argparse
import json
import resource
import time

import dyadcast.harness as harness
from spans import Tracer, installed


def _timed(tracer, name, fn, *args):
    if tracer is None:
        return fn(*args)
    return tracer.call(name, fn, args)


def repetition(config_path: str, tracer=None) -> dict:
    t0 = time.perf_counter()
    config = _timed(tracer, "harness.load_config", harness.load_config, config_path)
    panel, covariates = _timed(tracer, "harness.load_run_inputs", harness.load_run_inputs, config)
    setup_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    result = _timed(tracer, "harness.run_experiment", harness.run_experiment, config, panel, covariates)
    _timed(tracer, "harness.write_outputs", harness.write_outputs, result)
    experiment_s = time.perf_counter() - t0
    return {
        "setup_s": setup_s,
        "experiment_s": experiment_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cells": {s: sum(c.status == s for c in result.cells) for s in ("ok", "skip", "error")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)
    if args.spans:
        tracer = Tracer(run_id=args.result)
        with installed(tracer):
            out = repetition(args.config, tracer)
        with open(args.spans, "w") as fh:
            json.dump(tracer.spans, fh)
    else:
        out = repetition(args.config)
    with open(args.result, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
