"""Rolling-origin forecasting experiments over dyadic event panels.

For each outcome period t, lag window L, spec-class, and learner, the
harness fits on training designs built from outcome periods t-D..t-1
(each using only information strictly before itself), scores the period-t
design out of sample, and evaluates with rare-event metrics. Nothing from
period >= t can reach a fit: designs are constructed from lagged windows
only, and the test suite additionally perturbs future periods to verify
score invariance.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

from .codec import Folds, Level, NonEmpty, Positive, Saved, check, check_fields, decode
from .design import (
    SPEC_CLASSES,
    SPEC_COMBINED,
    SPEC_COVARIATES,
    FeatureConfig,
    SpecClass,
    build_design,
    stack_designs,
)
from .errors import (
    DyadcastError,
    EvaluationError,
    FitError,
    SchemaError,
    TuningError,
    ValidationError,
)
from .evaluation import bootstrap_ci, coefficient_ratio, pr_curve, roc_curve, RatioSeries
from .latent import BundleCache
from .learners import (
    LEARNERS, Learner, TrainingSet, TuneGrid, fit_learner, fit_logit, learner_keywords,
)
from .seeding import seed_for
from .store import CovariateTable, EventPanel, aggregate_window, load_covariates, load_events

CELLS_HEADER = ("period", "lag", "spec", "learner", "auc_pr", "auc_roc", "skip", "error")
AGGREGATE_HEADER = (
    "lag", "spec", "learner",
    "mean_auc_pr", "ci_lo", "ci_hi",
    "mean_auc_roc", "ci_lo", "ci_hi",
)
RATIOS_HEADER = ("lag", "spec", "period", "feature", "ratio", "smoothed", "selected")


@dataclass
class ExperimentConfig(Saved):
    """Everything a run needs; serializes to/from a flat JSON document."""

    events: str | None = None
    registry: str | None = None
    covariates: str | None = None
    first_period: int = 1979
    last_period: int = 2001
    lags: NonEmpty[Positive] = (1, 5, 10)
    spec_classes: NonEmpty[SpecClass] = SPEC_CLASSES
    learners: NonEmpty[Learner] = LEARNERS
    depth: Positive = 1
    master_seed: int = 0
    tune_folds: Folds = 5
    tune_grid: TuneGrid = field(default_factory=TuneGrid)
    learner_params: dict[str, dict] = field(default_factory=dict)
    features: FeatureConfig = field(default_factory=FeatureConfig)
    bootstrap_replicates: Positive = 10000
    bootstrap_level: Level = 0.95
    output_dir: str = "dyadcast-out"
    dump_models: bool = False

    def validate(self) -> None:
        """Declared types and bounds, then the rules between fields."""
        check_fields(self, ValidationError)
        if self.first_period > self.last_period:
            raise ValidationError(
                f"empty period range {self.first_period}..{self.last_period}"
            )
        if len(set(self.lags)) != len(self.lags):
            raise ValidationError(f"duplicate lags in {self.lags}")
        for kind, params in self.learner_params.items():
            if kind not in LEARNERS:
                raise ValidationError(f"learner_params for unknown learner {kind!r}")
            path = f"learner_params.{kind}"
            accepted = learner_keywords(kind)
            unknown = sorted(set(params) - set(accepted))
            if unknown:
                raise ValidationError(
                    f"unknown {path} keys: {unknown}; accepted: {sorted(accepted)}"
                )
            for name, value in params.items():
                check(accepted[name], value, ValidationError, f"{path}.{name}")

    @classmethod
    def from_json(cls, obj: dict) -> "ExperimentConfig":
        cfg = decode(cls, obj, ValidationError, "config")
        cfg.validate()
        return cfg


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        return ExperimentConfig.from_json(json.load(fh))


def load_run_inputs(config: ExperimentConfig):
    """Read the panel and covariate table named by the config."""
    if config.events is None:
        raise ValidationError("config names no events file")
    panel = load_events(config.events, config.registry)
    covariates = None
    if config.covariates is not None:
        covariates = load_covariates(config.covariates)
    return panel, covariates


@dataclass
class CellResult:
    """Outcome of one (period, lag, spec-class, learner) cell."""

    period: int
    lag: int
    spec_class: str
    learner: str
    status: str  # ok | skip | error
    auc_pr: float = float("nan")
    auc_roc: float = float("nan")
    reason: str = ""
    scores: tuple | None = None
    n_test: int = 0
    n_positive: int = 0

    def key(self):
        return (self.period, self.lag, self.spec_class, self.learner)


@dataclass
class RunResult:
    config: ExperimentConfig
    cells: list
    ratios: dict  # (lag, spec_class) -> RatioSeries
    models: dict  # cell key -> FittedModel

    def cell(self, period: int, lag: int, spec_class: str, learner: str) -> CellResult:
        for c in self.cells:
            if c.key() == (period, lag, spec_class, learner):
                return c
        raise KeyError((period, lag, spec_class, learner))

    def verify_complete(self) -> None:
        expected = {
            (t, lag, spec, kind)
            for lag in self.config.lags
            for t in range(self.config.first_period, self.config.last_period + 1)
            for spec in self.config.spec_classes
            for kind in self.config.learners
        }
        seen = [c.key() for c in self.cells]
        if len(seen) != len(set(seen)) or set(seen) != expected:
            raise ValidationError("run result does not cover each configured cell exactly once")

    def errored(self) -> bool:
        return any(c.status == "error" for c in self.cells)

    @cached_property
    def aggregate(self) -> list:
        """aggregate_rows over the cells, computed once on first use and
        shared by the aggregate.csv writer and the CLI printout."""
        return aggregate_rows(self.config, self.cells)


def run_experiment(
    config: ExperimentConfig,
    panel: EventPanel,
    covariates: CovariateTable | None = None,
    cache: BundleCache | None = None,
) -> RunResult:
    """Execute every configured cell; failures are recorded per cell and
    never abort the run."""
    config.validate()
    needs_cov = any(s in (SPEC_COVARIATES, SPEC_COMBINED) for s in config.spec_classes)
    if needs_cov and covariates is None:
        raise ValidationError("configured spec classes need a covariate table")
    cache = cache if cache is not None else BundleCache()
    p_min, p_max = panel.period_range()

    designs: dict = {}

    def design_for(t: int, lag: int, spec: str):
        key = (t, lag, spec)
        if key not in designs:
            bundle = None
            if spec != SPEC_COVARIATES:
                net = aggregate_window(panel, t - lag, t - 1)
                bundle = cache.get(net, config.features.latent, config.master_seed)
            designs[key] = build_design(
                panel, t, lag, spec, config.features, bundle, covariates
            )
        return designs[key]

    cells: list = []
    ratios: dict = {}
    models: dict = {}

    for lag in config.lags:
        for t in range(config.first_period, config.last_period + 1):
            if t > p_max:
                blanket = f"period {t} beyond data range (last period {p_max})"
            elif t - config.depth - lag < p_min:
                blanket = (
                    f"insufficient history: period {t} needs data back to "
                    f"{t - config.depth - lag}, have {p_min}"
                )
            else:
                blanket = None
            if blanket is not None:
                for spec in config.spec_classes:
                    for kind in config.learners:
                        cells.append(
                            CellResult(t, lag, spec, kind, "skip", reason=blanket)
                        )
                continue

            for spec in config.spec_classes:
                try:
                    train_designs = [
                        design_for(tau, lag, spec) for tau in range(t - config.depth, t)
                    ]
                    test_design = design_for(t, lag, spec)
                    X_tr, y_tr = stack_designs(train_designs)
                    names = train_designs[0].feature_names
                    if test_design.feature_names != names:
                        raise SchemaError(
                            f"test features {test_design.feature_names} != training {names}"
                        )
                    train = TrainingSet.build(X_tr, y_tr, names)
                except (DyadcastError, ValueError) as exc:
                    for kind in config.learners:
                        cells.append(
                            CellResult(t, lag, spec, kind, "error", reason=str(exc))
                        )
                    continue

                n_pos = int(y_tr.sum())
                n_neg = len(y_tr) - n_pos
                for kind in config.learners:
                    if n_pos == 0 or n_neg == 0:
                        cells.append(
                            CellResult(
                                t, lag, spec, kind, "skip",
                                reason=f"single-class training labels ({n_pos} pos / {n_neg} neg)",
                            )
                        )
                        continue
                    try:
                        model = fit_learner(
                            kind,
                            train,
                            params=config.learner_params.get(kind),
                            seed=seed_for(config.master_seed, "cell", t, lag, spec, kind),
                            grid=config.tune_grid,
                            folds=config.tune_folds,
                        )
                        scores = model.predict_proba(test_design.X, names)
                    except (FitError, TuningError) as exc:
                        cells.append(
                            CellResult(t, lag, spec, kind, "error", reason=str(exc))
                        )
                        continue

                    models[(t, lag, spec, kind)] = model
                    if kind == "elastic-net":
                        # the logit cell, when already fitted, is the same model
                        companion = models.get((t, lag, spec, "logit")) or fit_logit(train)
                        entries = coefficient_ratio(model, companion)
                        ratios.setdefault((lag, spec), RatioSeries(rows=[])).add(t, entries)

                    score_tuple = tuple(float(s) for s in scores)
                    base = dict(
                        scores=score_tuple,
                        n_test=len(score_tuple),
                        n_positive=int(test_design.y.sum()),
                    )
                    try:
                        auc_pr = pr_curve(scores, test_design.y).auc
                        auc_roc = roc_curve(scores, test_design.y).auc
                    except EvaluationError as exc:
                        cells.append(
                            CellResult(
                                t, lag, spec, kind, "skip", reason=str(exc), **base
                            )
                        )
                        continue
                    cells.append(
                        CellResult(
                            t, lag, spec, kind, "ok",
                            auc_pr=auc_pr, auc_roc=auc_roc, **base,
                        )
                    )

    result = RunResult(config=config, cells=cells, ratios=ratios, models=models)
    result.verify_complete()
    return result


@dataclass(frozen=True)
class AggregateRow:
    lag: int
    spec_class: str
    learner: str
    n_periods: int
    mean_auc_pr: float
    pr_lo: float
    pr_hi: float
    mean_auc_roc: float
    roc_lo: float
    roc_hi: float


def aggregate_rows(config: ExperimentConfig, cells) -> list:
    """Mean AUCs with bootstrap CIs per (lag, spec-class, learner); skipped
    and errored cells never enter the means or the resampling. Fewer than
    2 contributing periods leaves the CI undefined."""
    groups: dict = {}
    for c in cells:
        if c.status == "ok":
            groups.setdefault((c.lag, c.spec_class, c.learner), []).append(c)
    rows = []
    for lag in sorted(set(config.lags)):
        for spec in config.spec_classes:
            for kind in config.learners:
                members = sorted(groups.get((lag, spec, kind), []), key=lambda c: c.period)
                prs = [c.auc_pr for c in members]
                rocs = [c.auc_roc for c in members]
                nan = float("nan")
                mean_pr = sum(prs) / len(prs) if prs else nan
                mean_roc = sum(rocs) / len(rocs) if rocs else nan
                pr_lo = pr_hi = roc_lo = roc_hi = nan
                if len(members) >= 2:
                    pr_lo, pr_hi = bootstrap_ci(
                        prs,
                        replicates=config.bootstrap_replicates,
                        seed=seed_for(config.master_seed, "ci", lag, spec, kind, "pr"),
                        level=config.bootstrap_level,
                    )
                    roc_lo, roc_hi = bootstrap_ci(
                        rocs,
                        replicates=config.bootstrap_replicates,
                        seed=seed_for(config.master_seed, "ci", lag, spec, kind, "roc"),
                        level=config.bootstrap_level,
                    )
                rows.append(
                    AggregateRow(
                        lag, spec, kind, len(members),
                        mean_pr, pr_lo, pr_hi, mean_roc, roc_lo, roc_hi,
                    )
                )
    return rows


def summarize(result: RunResult) -> list:
    return list(result.aggregate)


def _fmt(x) -> str:
    if x is None:
        return "NA"
    x = float(x)
    return "NA" if math.isnan(x) else repr(x)


def _fmt_flag(selected) -> str:
    if selected is None:
        return "NA"
    return "true" if selected else "false"


def write_cells_csv(path, cells) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(CELLS_HEADER)
        for c in sorted(cells, key=lambda c: c.key()):
            w.writerow(
                [
                    c.period, c.lag, c.spec_class, c.learner,
                    _fmt(c.auc_pr), _fmt(c.auc_roc),
                    c.reason if c.status == "skip" else "",
                    c.reason if c.status == "error" else "",
                ]
            )


def read_cells_csv(path) -> list:
    """Inverse of write_cells_csv, close enough for re-summarizing."""
    cells = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != list(CELLS_HEADER):
            raise ValidationError(f"unexpected cells.csv header: {header}")
        for row in reader:
            period, lag, spec, kind, pr, roc, skip, error = row
            if error:
                status, reason = "error", error
            elif skip:
                status, reason = "skip", skip
            else:
                status, reason = "ok", ""
            cells.append(
                CellResult(
                    int(period), int(lag), spec, kind, status,
                    auc_pr=float("nan") if pr == "NA" else float(pr),
                    auc_roc=float("nan") if roc == "NA" else float(roc),
                    reason=reason,
                )
            )
    return cells


def write_aggregate_csv(path, rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(AGGREGATE_HEADER)
        for r in rows:
            w.writerow(
                [
                    r.lag, r.spec_class, r.learner,
                    _fmt(r.mean_auc_pr), _fmt(r.pr_lo), _fmt(r.pr_hi),
                    _fmt(r.mean_auc_roc), _fmt(r.roc_lo), _fmt(r.roc_hi),
                ]
            )


def write_ratios_csv(path, ratios: dict) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(RATIOS_HEADER)
        for (lag, spec) in sorted(ratios):
            for period, feature, ratio, smoothed, selected in ratios[(lag, spec)].with_smoothing():
                w.writerow(
                    [lag, spec, period, feature, _fmt(ratio), _fmt(smoothed), _fmt_flag(selected)]
                )


def write_outputs(result: RunResult, out_dir=None) -> dict:
    """Write cells.csv, aggregate.csv, ratios.csv, the resolved config,
    and (optionally) per-cell model JSON dumps. Returns the paths."""
    out = Path(out_dir if out_dir is not None else result.config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "cells": out / "cells.csv",
        "aggregate": out / "aggregate.csv",
        "ratios": out / "ratios.csv",
        "config": out / "config.json",
    }
    write_cells_csv(paths["cells"], result.cells)
    write_aggregate_csv(paths["aggregate"], summarize(result))
    write_ratios_csv(paths["ratios"], result.ratios)
    with open(paths["config"], "w") as fh:
        json.dump(result.config.to_json(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    if result.config.dump_models:
        model_dir = out / "models"
        model_dir.mkdir(exist_ok=True)
        for key in sorted(result.models):
            with open(model_dir / f"{'-'.join(map(str, key))}.json", "w") as fh:
                json.dump(result.models[key].to_json(), fh)
        paths["models"] = model_dir
    return {k: str(v) for k, v in paths.items()}
