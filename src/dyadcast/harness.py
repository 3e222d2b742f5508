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

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .codec import Folds, Level, NonEmpty, Positive, Saved, check, check_fields, decode
from .design import (
    READS_COVARIATES, SPEC_CLASSES, SPEC_COMBINED, SPEC_COVARIATES, SPEC_ENDOGENOUS,
    FeatureConfig, SpecClass, build_design, join_designs, stack_designs,
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
from .store import _parse_float, _parse_int, _read_rows, _stripped_rows, _write_rows

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
        for name in ("lags", "spec_classes", "learners"):
            values = getattr(self, name)
            if len(set(values)) != len(values):
                raise ValidationError(f"duplicate {name} in {values}")
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
    with open(path, encoding="utf-8") as fh:
        return ExperimentConfig.from_json(json.load(fh))


def load_run_inputs(config: ExperimentConfig):
    """Read the panel and covariate table named by the config. The table is
    read only when a configured spec class uses it; otherwise it is None."""
    if config.events is None:
        raise ValidationError("config names no events file")
    panel = load_events(config.events, config.registry)
    covariates = None
    if config.covariates is not None and READS_COVARIATES.intersection(config.spec_classes):
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
    # the learner's test-period probabilities, read-only, in dyad order
    scores: np.ndarray | None = field(default=None, compare=False)
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


def _history_gap(t: int, lag: int, depth: int, p_min: int, p_max: int) -> str | None:
    """Why period t has too little data to train and test at this lag, or
    None when the panel covers it."""
    if t > p_max:
        return f"period {t} beyond data range (last period {p_max})"
    if t - depth - lag < p_min:
        return (
            f"insufficient history: period {t} needs data back to "
            f"{t - depth - lag}, have {p_min}"
        )
    return None


def _single_class(y) -> str | None:
    """Why labels y cannot train a classifier, or None when both occur."""
    n_pos = int(y.sum())
    n_neg = len(y) - n_pos
    if n_pos == 0 or n_neg == 0:
        return f"single-class training labels ({n_pos} pos / {n_neg} neg)"
    return None


def _scored_cell(key: tuple, scores, y) -> CellResult:
    """An ok cell, or a skip with NaN AUCs when the test labels leave an
    AUC undefined; the scores are kept either way, as a read-only array."""
    scores = np.asarray(scores, dtype=np.float64)
    scores.flags.writeable = False
    try:
        auc_pr, auc_roc = pr_curve(scores, y), roc_curve(scores, y)
        status, reason = "ok", ""
    except EvaluationError as exc:
        auc_pr = auc_roc = float("nan")
        status, reason = "skip", str(exc)
    return CellResult(
        *key, status, auc_pr, auc_roc, reason,
        scores=scores, n_positive=int(y.sum()),
    )


def run_experiment(
    config: ExperimentConfig,
    panel: EventPanel,
    covariates: CovariateTable | None = None,
    cache: BundleCache | None = None,
) -> RunResult:
    """Execute every configured cell; failures are recorded per cell and
    never abort the run."""
    config.validate()
    if READS_COVARIATES.intersection(config.spec_classes) and covariates is None:
        raise ValidationError("configured spec classes need a covariate table")
    cache = cache if cache is not None else BundleCache()
    p_min, p_max = panel.period_range()

    def design_for(t: int, lag: int, spec: str):
        """The design of period t; ``designs`` holds the single-block ones,
        and a combined design is their join, made when it is read."""
        if spec == SPEC_COMBINED:
            return join_designs(
                design_for(t, lag, SPEC_ENDOGENOUS), design_for(t, lag, SPEC_COVARIATES)
            )
        key = (t, spec)
        if key not in designs:
            net = bundle = None
            if spec == SPEC_ENDOGENOUS:
                net = aggregate_window(panel, t - lag, t - 1)
                bundle = cache.get(net, config.features.latent, config.master_seed)
            designs[key] = build_design(panel, t, spec, config.features, net, bundle, covariates)
        return designs[key]

    cells: list = []
    ratios: dict = {}
    models: dict = {}

    def run_group(t: int, lag: int, spec: str, reason: str | None) -> None:
        """Every learner's cell at (t, lag, spec). A reason that is not None,
        given or found here, is the fate of each of them. The designs held
        here are let go on return, so only ``designs`` keeps any."""
        status = "skip"
        if reason is None:
            try:
                train_designs = [design_for(tau, lag, spec) for tau in range(t - config.depth, t)]
                test = design_for(t, lag, spec)
                X_tr, y_tr = stack_designs(train_designs)
                names = train_designs[0].feature_names
                if test.feature_names != names:
                    raise SchemaError(f"test features {test.feature_names} != training {names}")
                train = TrainingSet.build(X_tr, y_tr, names)
            except (DyadcastError, ValueError) as exc:
                status, reason = "error", str(exc)
            else:
                reason = _single_class(train.y)
        if reason is not None:
            cells.extend(
                CellResult(t, lag, spec, kind, status, reason=reason) for kind in config.learners
            )
            return

        for kind in config.learners:
            key = (t, lag, spec, kind)
            try:
                model = fit_learner(
                    kind,
                    train,
                    params=config.learner_params.get(kind),
                    seed=seed_for(config.master_seed, "cell", *key),
                    grid=config.tune_grid,
                    folds=config.tune_folds,
                )
                scores = model.predict_proba(test.X, names)
            except (FitError, TuningError) as exc:
                cells.append(CellResult(*key, "error", reason=str(exc)))
                continue

            models[key] = model
            if kind == "elastic-net":
                # the logit cell, when already fitted, is the same model
                companion = models.get((t, lag, spec, "logit")) or fit_logit(train)
                entries = coefficient_ratio(model, companion)
                ratios.setdefault((lag, spec), RatioSeries(rows=[])).add(t, entries)
            cells.append(_scored_cell(key, scores, test.y))

    for lag in config.lags:
        designs: dict = {}
        for t in range(config.first_period, config.last_period + 1):
            # a design is read while t is its period or up to depth periods after
            designs = {k: d for k, d in designs.items() if k[0] >= t - config.depth}
            gap = _history_gap(t, lag, config.depth, p_min, p_max)
            for spec in config.spec_classes:
                run_group(t, lag, spec, gap)

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
                row = [lag, spec, kind, len(members)]
                for metric in ("pr", "roc"):
                    values = [getattr(c, f"auc_{metric}") for c in members]
                    mean = sum(values) / len(values) if values else float("nan")
                    lo = hi = float("nan")
                    if len(values) >= 2:
                        lo, hi = bootstrap_ci(
                            values,
                            replicates=config.bootstrap_replicates,
                            seed=seed_for(config.master_seed, "ci", lag, spec, kind, metric),
                            level=config.bootstrap_level,
                        )
                    row += [mean, lo, hi]
                rows.append(AggregateRow(*row))
    return rows


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
    _write_rows(path, CELLS_HEADER, (
        [
            c.period, c.lag, c.spec_class, c.learner,
            _fmt(c.auc_pr), _fmt(c.auc_roc),
            c.reason if c.status == "skip" else "",
            c.reason if c.status == "error" else "",
        ]
        for c in sorted(cells, key=lambda c: c.key())
    ))


def read_cells_csv(path) -> list:
    """Inverse of write_cells_csv, close enough for re-summarizing."""
    cells, blank_lines = [], []
    for fields, blanks in _read_rows(path, CELLS_HEADER, "cells"):
        blank_lines += blanks
        for period, lag, spec, kind, pr, roc, skip, error in _stripped_rows(
            fields, len(CELLS_HEADER)
        ):
            row = len(cells)
            pr, roc = (math.nan if v == "NA" else _parse_float(v, "cells", blank_lines, row, what)
                       for v, what in ((pr, "auc_pr"), (roc, "auc_roc")))
            status, reason = ("error", error) if error else ("skip", skip) if skip else ("ok", "")
            cells.append(
                CellResult(
                    _parse_int(period, "cells", blank_lines, row, "period"),
                    _parse_int(lag, "cells", blank_lines, row, "lag"),
                    spec, kind, status, auc_pr=pr, auc_roc=roc, reason=reason,
                )
            )
    return cells


def write_aggregate_csv(path, rows) -> None:
    _write_rows(path, AGGREGATE_HEADER, (
        [
            r.lag, r.spec_class, r.learner,
            _fmt(r.mean_auc_pr), _fmt(r.pr_lo), _fmt(r.pr_hi),
            _fmt(r.mean_auc_roc), _fmt(r.roc_lo), _fmt(r.roc_hi),
        ]
        for r in rows
    ))


def write_ratios_csv(path, ratios: dict) -> None:
    _write_rows(path, RATIOS_HEADER, (
        [lag, spec, period, feature, _fmt(ratio), _fmt(smoothed), _fmt_flag(selected)]
        for (lag, spec) in sorted(ratios)
        for period, feature, ratio, smoothed, selected in ratios[(lag, spec)].with_smoothing()
    ))


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
    write_aggregate_csv(paths["aggregate"], result.aggregate)
    write_ratios_csv(paths["ratios"], result.ratios)
    with open(paths["config"], "w") as fh:
        json.dump(result.config.to_json(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    if result.config.dump_models:
        model_dir = out / "models"
        model_dir.mkdir(exist_ok=True)
        for key in sorted(result.models):
            with open(model_dir / f"{'-'.join(map(str, key))}.json", "w") as fh:
                json.dump(result.models[key].to_json(), fh, allow_nan=False)
        paths["models"] = model_dir
    return {k: str(v) for k, v in paths.items()}
