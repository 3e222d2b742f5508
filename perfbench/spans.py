"""Span tracing around dyadcast's public functions, and the per-layer
metrics derived from the spans.

Each wrapper is installed at the namespace its caller looks the function
up in (``dyadcast.harness.fit_learner`` for the per-cell fits,
``dyadcast.learners.fit_learner`` for the cross-validation fits inside
``tune``), so the program itself is not modified. Spans are kept in memory
and written out by the caller when the run ends.
"""

from __future__ import annotations

import importlib
import statistics
import time
from contextlib import contextmanager

LEARNER_KINDS = ("logit", "elastic-net", "logitboost", "neural-net")


def _kind(result, args, kwargs):
    return {"kind": args[0] if args else kwargs["kind"]}


def _tune_attrs(result, args, kwargs):
    return {**_kind(result, args, kwargs), "extensions": result.extensions}


# (module, attribute, span name, attributes taken from the call)
PATCHES = (
    ("dyadcast.harness", "load_events", "store.load_events", None),
    ("dyadcast.harness", "load_covariates", "store.load_covariates",
     lambda r, a, k: {"rows": len(r.entries)}),
    ("dyadcast.harness", "aggregate_window", "store.aggregate_window", None),
    ("dyadcast.design", "aggregate_window", "store.aggregate_window", None),
    ("dyadcast.design", "eligible_dyads", "store.eligible_dyads", None),
    ("dyadcast.latent", "BundleCache.get", "latent.cache_get", None),
    ("dyadcast.latent", "fit_bundle", "latent.fit_bundle", None),
    ("dyadcast.latent", "walktrap", "latent.walktrap", None),
    ("dyadcast.latent", "fit_mmsbm", "latent.fit_mmsbm",
     lambda r, a, k: {"iters": r.n_iter}),
    ("dyadcast.latent", "fit_latent_space", "latent.fit_latent_space",
     lambda r, a, k: {"iters": r.n_iter, "converged": bool(r.converged)}),
    ("dyadcast.design", "feature_block", "features.feature_block",
     lambda r, a, k: {"rows": len(r)}),
    ("dyadcast.harness", "build_design", "design.build_design",
     lambda r, a, k: {"rows": len(r.y)}),
    ("dyadcast.harness", "stack_designs", "design.stack_designs", None),
    ("dyadcast.harness", "fit_learner", "learners.fit", _kind),
    ("dyadcast.learners", "fit_learner", "learners.cv_fit", _kind),
    ("dyadcast.learners", "tune", "learners.tune", _tune_attrs),
    ("dyadcast.learners", "FittedModel.predict_proba", "learners.predict", None),
    ("dyadcast.harness", "fit_logit", "learners.companion_logit", None),
    ("dyadcast.harness", "pr_curve", "evaluation.curve", None),
    ("dyadcast.harness", "roc_curve", "evaluation.curve", None),
    ("dyadcast.harness", "bootstrap_ci", "evaluation.bootstrap", None),
    ("dyadcast.harness", "coefficient_ratio", "evaluation.ratio", None),
    ("dyadcast.harness", "aggregate_rows", "harness.aggregate_rows", None),
)


class Tracer:
    """Records spans (id, name, start, end, parent id, run id, attrs)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self._stack: list = []

    def call(self, name, fn, args=(), kwargs=None, attrs=None):
        kwargs = kwargs or {}
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        try:
            result = fn(*args, **kwargs)
        finally:
            self._stack.pop()
            span["end"] = time.perf_counter()
        if attrs is not None:
            span["attrs"] = attrs(result, args, kwargs)
        return result


def _owner(module: str, attribute: str):
    owner = importlib.import_module(module)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def _wrapper(tracer, name, original, attrs):
    def traced(*args, **kwargs):
        return tracer.call(name, original, args, kwargs, attrs)

    traced.__wrapped__ = original
    return traced


@contextmanager
def installed(tracer: Tracer):
    """Install the span wrappers for the duration of the block and put
    every original attribute back afterwards, even on error."""
    saved = []
    try:
        for module, attribute, name, attrs in PATCHES:
            owner, attr = _owner(module, attribute)
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrapper(tracer, name, original, attrs))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(spans) -> dict:
    """Span id -> duration minus the time covered by its direct children.
    Calls are single-threaded and nested, so children never overlap."""
    out = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def _percentile(values, q):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(spans) -> dict:
    """Per-layer metrics (name -> value) from one traced run's spans."""
    selfs = self_times(spans)
    by_name: dict = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def dur(name, kind=None):
        return sum(
            s["end"] - s["start"]
            for s in by_name.get(name, [])
            if kind is None or s["attrs"]["kind"] == kind
        )

    def count(name, kind=None):
        return sum(
            1 for s in by_name.get(name, []) if kind is None or s["attrs"]["kind"] == kind
        )

    def attr_sum(name, key):
        return sum(s["attrs"][key] for s in by_name.get(name, []))

    def self_sum(name):
        return sum(selfs[s["id"]] for s in by_name.get(name, []))

    fits = count("latent.fit_bundle")
    gets = count("latent.cache_get")
    space_fits = count("latent.fit_latent_space")
    fit_ms = sorted(1000.0 * (s["end"] - s["start"]) for s in by_name.get("learners.fit", []))
    m = {
        "store.load_s": dur("store.load_events") + dur("store.load_covariates"),
        "store.covariate_rows": attr_sum("store.load_covariates", "rows"),
        "store.aggregate_window_s": dur("store.aggregate_window"),
        "store.eligible_dyads_s": dur("store.eligible_dyads"),
        "latent.bundle_fits": fits,
        "latent.cache_gets": gets,
        "latent.cache_hit_ratio": (gets - fits) / gets if gets else 0.0,
        "latent.walktrap_s": dur("latent.walktrap"),
        "latent.mmsbm_s": dur("latent.fit_mmsbm"),
        "latent.mmsbm_iters": attr_sum("latent.fit_mmsbm", "iters"),
        "latent.latent_space_s": dur("latent.fit_latent_space"),
        "latent.latent_space_iters": attr_sum("latent.fit_latent_space", "iters"),
        "latent.latent_space_converged_ratio": (
            attr_sum("latent.fit_latent_space", "converged") / space_fits if space_fits else 0.0
        ),
        "features.feature_block_s": dur("features.feature_block"),
        "features.rows": attr_sum("features.feature_block", "rows"),
        "design.build_design_self_s": self_sum("design.build_design"),
        "design.rows": attr_sum("design.build_design", "rows"),
        "design.stack_s": dur("design.stack_designs"),
    }
    for kind in LEARNER_KINDS:
        m[f"learners.fit_s.{kind}"] = dur("learners.fit", kind)
        m[f"learners.fits.{kind}"] = count("learners.fit", kind)
        m[f"learners.tune_s.{kind}"] = dur("learners.tune", kind)
        m[f"learners.cv_fits.{kind}"] = count("learners.cv_fit", kind)
    m.update(
        {
            "learners.tune_extensions": attr_sum("learners.tune", "extensions"),
            "learners.fit_ms.p50": _percentile(fit_ms, 50),
            "learners.fit_ms.p90": _percentile(fit_ms, 90),
            "learners.predict_s": dur("learners.predict"),
            "learners.companion_logit_s": dur("learners.companion_logit"),
            "evaluation.curve_s": dur("evaluation.curve"),
            "evaluation.bootstrap_s": dur("evaluation.bootstrap"),
            "evaluation.ratio_s": dur("evaluation.ratio"),
            "harness.self_s": self_sum("harness.run_experiment"),
            "harness.aggregate_s": self_sum("harness.aggregate_rows"),
            "harness.write_s": self_sum("harness.write_outputs"),
        }
    )
    return m
