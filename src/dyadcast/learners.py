"""Trainable binary classifiers over dyad designs.

All learners operate on a TrainingSet whose columns are standardized
(mean 0, sd 1 with ddof=0, computed on the training rows), with
zero-variance columns dropped and recorded. Coefficients are reported on
the standardized scale; the elastic net also reports the original scale.
Probability outputs are used as ranking scores downstream, so every
learner ends in a sigmoid.

The fit functions only fit: each takes its hyperparameters as required
keywords. ``fit_learner`` settles them. It passes the hyperparameters a
caller sets straight through and chooses the others with one ``tune``
call, whose cross-validation fits are ``fit_learner`` calls with every
keyword set.
"""

from __future__ import annotations

import inspect
import itertools
import operator
import sys
import typing
from dataclasses import dataclass, field
from typing import Literal, NamedTuple

import numpy as np

from .codec import Count, Folds, NonEmpty, NonNegative, Positive, Saved, checked
from .descent import FitReport, descend
from .errors import EvaluationError, FitError, SchemaError, TuningError
from .evaluation import pr_curve
from .seeding import seed_for

COEF_CAP = 30.0
IRLS_MAX_ITER = 100
IRLS_GRAD_TOL = 1e-8
TUNE_MAX_EXTENSIONS = 3


@dataclass
class Standardizer(Saved):
    """Column standardization frozen at fit time.

    Zero-variance columns (sd below 1e-12 relative tolerance) are removed
    entirely and remembered by name, so prediction-time inputs must carry
    the full original schema but only informative columns reach the model.
    """

    input_names: tuple
    kept: np.ndarray = field(metadata={"dtype": int})
    means: np.ndarray
    sds: np.ndarray
    dropped: tuple

    @staticmethod
    def fit(X: np.ndarray, names) -> "Standardizer":
        names = tuple(names)
        if X.shape[1] != len(names):
            raise SchemaError(f"{X.shape[1]} columns but {len(names)} names")
        means = X.mean(axis=0) if len(X) else np.zeros(X.shape[1])
        sds = X.std(axis=0) if len(X) else np.zeros(X.shape[1])
        tol = 1e-12 * np.maximum(1.0, np.abs(means))
        keep = sds > tol
        kept = np.flatnonzero(keep)
        dropped = tuple(name for name, k in zip(names, keep) if not k)
        return Standardizer(
            input_names=names,
            kept=kept,
            means=means[kept],
            sds=sds[kept],
            dropped=dropped,
        )

    def transform(self, X: np.ndarray, names) -> np.ndarray:
        if tuple(names) != self.input_names:
            raise SchemaError(
                f"feature schema mismatch: expected {self.input_names}, got {tuple(names)}"
            )
        return (X[:, self.kept] - self.means) / self.sds

    def kept_names(self) -> tuple:
        return tuple(self.input_names[k] for k in self.kept)


@dataclass
class TrainingSet:
    """Standardized design ready for any learner."""

    Z: np.ndarray
    y: np.ndarray
    standardizer: Standardizer

    @staticmethod
    def build(X: np.ndarray, y: np.ndarray, names) -> "TrainingSet":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if X.ndim != 2 or len(X) != len(y):
            raise SchemaError(f"X is {X.shape}, y has {len(y)} rows")
        if np.any((y != 0.0) & (y != 1.0)):
            raise FitError("labels must be 0/1")
        if not np.all(np.isfinite(X)):
            raise FitError("non-finite feature values")
        std = Standardizer.fit(X, names)
        return TrainingSet(Z=std.transform(X, names), y=y, standardizer=std)

    def subset(self, idx) -> "TrainingSet":
        return TrainingSet(Z=self.Z[idx], y=self.y[idx], standardizer=self.standardizer)


def _require_both_classes(y: np.ndarray) -> None:
    if len(y) == 0 or y.min() == y.max():
        raise FitError("single-class labels: nothing to fit")


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-np.clip(x, -500, 500)))


@dataclass
class FittedModel(FitReport, Saved):
    """One trained classifier (kind, schema, parameters; diagnostics: seed,
    failed starts, tuning), reporting its penalized training loss."""

    kind: str
    standardizer: Standardizer
    params: dict
    diagnostics: dict = field(default_factory=dict)

    def decision(self, Z: np.ndarray) -> np.ndarray:
        """Link-scale score on already-standardized columns."""
        p = self.params
        if self.kind in ("logit", "elastic-net"):
            return p["intercept"] + Z @ p["coef"]
        if self.kind == "logitboost":
            F = np.full(len(Z), p["f0"])
            for feat, thr, lo, hi in p["stumps"]:
                if feat < 0:
                    F += lo
                else:
                    F += np.where(Z[:, feat] < thr, lo, hi)
            return F
        if self.kind == "neural-net":
            A = _sigmoid(Z @ p["W1"] + p["b1"])
            return A @ p["w2"] + p["b2"]
        raise ValueError(f"unknown model kind {self.kind!r}")

    def predict_proba(self, X: np.ndarray, names) -> np.ndarray:
        Z = self.standardizer.transform(np.asarray(X, dtype=float), names)
        return _sigmoid(self.decision(Z))

    def coefficients(self) -> dict:
        """Standardized-scale coefficient per kept feature name (linear
        models only)."""
        if self.kind not in ("logit", "elastic-net"):
            raise ValueError(f"{self.kind} has no linear coefficients")
        return dict(zip(self.standardizer.kept_names(), self.params["coef"]))


def _irls(Z, y):
    """Newton/IRLS for logistic regression on a design with an implicit
    leading intercept column, stopping when every gradient entry is below
    IRLS_GRAD_TOL or after IRLS_MAX_ITER steps. Coefficients are capped at
    +-COEF_CAP to tame quasi-separation. Returns (beta, stop, capped,
    iterations), capped telling whether the last step was clipped."""
    n, p = Z.shape
    D = np.hstack([np.ones((n, 1)), Z])
    beta = np.zeros(p + 1)
    capped = False
    for it in range(1, IRLS_MAX_ITER + 1):
        eta = D @ beta
        mu = _sigmoid(eta)
        grad = D.T @ (y - mu)
        if np.max(np.abs(grad)) < IRLS_GRAD_TOL:
            return beta, "tolerance", capped, it
        w = np.maximum(mu * (1.0 - mu), 1e-10)
        H = (D * w[:, None]).T @ D
        try:
            step = np.linalg.solve(H, grad)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(H, grad, rcond=None)[0]
        beta = beta + step
        clipped = np.clip(beta, -COEF_CAP, COEF_CAP)
        capped = bool(np.any(clipped != beta))
        beta = clipped
    return beta, "cap", capped, IRLS_MAX_ITER


def fit_logit(train: TrainingSet, seed: int = 0) -> FittedModel:
    """Maximum-likelihood logistic regression via IRLS. IRLS draws nothing
    at random; seed is taken so that every fit function is called alike.
    The report's capped is 1 when the last step was clipped; its loss is
    formed with ``np.einsum``, never BLAS, as is the elastic net's."""
    _require_both_classes(train.y)
    beta, stop, capped, it = _irls(train.Z, train.y)
    loss = _nll(beta[0] + np.einsum("ij,j->i", train.Z, beta[1:]), train.y)
    return FittedModel(
        kind="logit",
        standardizer=train.standardizer,
        params={"intercept": float(beta[0]), "coef": beta[1:]},
        stop=stop, n_iter=it, objective=loss, capped=int(capped),
    )


def _soft_threshold(value, threshold):
    if value > threshold:
        return value - threshold
    if value < -threshold:
        return value + threshold
    return 0.0


@checked
def fit_elastic_net(
    train: TrainingSet,
    lam: NonNegative,
    seed: int = 0,
    max_outer: Count = 100,
) -> FittedModel:
    """Penalized logistic regression minimizing

        -loglik + lam * (sum|beta| + sum(beta^2))

    over standardized non-intercept coefficients; the ridge weight is
    twice the lasso weight once the square is differentiated. Outer IRLS
    quadratic approximations, inner cyclic coordinate descent with soft
    thresholding; the intercept is never penalized. Coefficients on the
    original feature scale are reported alongside the standardized ones.
    The report counts the outer steps, to a 1e-9 "tolerance", and
    (``capped``) the inner loops stopped at their 1000-sweep cap short of
    their 1e-11 tolerance; its objective is the penalized loss above.

    The inner loop uses covariance updates (Friedman, Hastie & Tibshirani
    2010): each IRLS step forms the weighted Gram matrix ZᵀWZ and the
    sums ZᵀWz, ZᵀW1, Σw and Σwz once, after which a coordinate update is
    scalar arithmetic on p-vectors. These sums and the linear predictor
    are formed with ``np.einsum`` and numpy reductions, never BLAS, so
    the fitted coefficients do not depend on the BLAS thread count.
    """
    _require_both_classes(train.y)
    Z, yv = train.Z, train.y
    p = Z.shape[1]
    beta0 = 0.0
    beta = [0.0] * p
    stop, outer, capped = "cap", 0, 0
    for outer in range(1, max_outer + 1):
        eta = beta0 + np.einsum("ij,j->i", Z, beta)
        mu = _sigmoid(eta)
        w = np.maximum(mu * (1.0 - mu), 1e-10)
        z = eta + (yv - mu) / w
        Zw = Z * w[:, None]
        gram = np.einsum("ik,ij->kj", Zw, Z).tolist()
        wz_k = np.einsum("ik,i->k", Zw, z).tolist()
        w_k = Zw.sum(axis=0).tolist()
        sw = float(w.sum())
        swz = float(np.sum(w * z))
        b0_old, b_old = beta0, list(beta)
        for _ in range(1000):
            delta = 0.0
            for k in range(p):
                row = gram[k]
                old = beta[k]
                # weighted inner product of column k with the partial residual
                rho = wz_k[k] - beta0 * w_k[k] - sum(map(operator.mul, row, beta)) + row[k] * old
                new = _soft_threshold(rho, lam) / (row[k] + 2.0 * lam)
                new = min(max(new, -COEF_CAP), COEF_CAP)
                delta = max(delta, abs(new - old))
                beta[k] = new
            new0 = (swz - sum(map(operator.mul, w_k, beta))) / sw
            delta = max(delta, abs(new0 - beta0))
            beta0 = new0
            if delta < 1e-11:
                break
        else:
            capped += 1
        step = max(map(abs, map(operator.sub, beta, b_old)), default=0.0)
        if max(abs(beta0 - b0_old), step) < 1e-9:
            stop = "tolerance"
            break
    beta = np.array(beta)

    std = train.standardizer
    raw_coef = np.zeros(len(std.input_names))
    scaled = beta / std.sds if p else beta
    raw_coef[std.kept] = scaled
    raw_intercept = beta0 - float(np.sum(scaled * std.means)) if p else beta0
    loss = _nll(beta0 + np.einsum("ij,j->i", Z, beta), yv)
    penalty = lam * float(np.sum(np.abs(beta)) + np.sum(beta**2))
    return FittedModel(
        kind="elastic-net",
        standardizer=std,
        params={
            "intercept": beta0,
            "coef": beta,
            "lam": lam,
            "raw_intercept": raw_intercept,
            "raw_coef": raw_coef,
        },
        diagnostics={"seed": seed},
        stop=stop, n_iter=outer, objective=loss + penalty, capped=capped,
    )


class _CutTable(NamedTuple):
    """Every place a stump can split a design, fixed for one fit.

    ``order`` is each column's stable sort order, one row per column.
    ``flat`` indexes the boundaries between distinct sorted values in the
    flattened ``order``, in scan order: lowest column first, then lowest
    cut. ``feat`` and ``thr`` are each boundary's column and midpoint."""

    order: np.ndarray
    flat: np.ndarray
    feat: np.ndarray
    thr: np.ndarray


def _cut_table(Z) -> _CutTable:
    """The cut table of Z, built once per fit."""
    order = np.argsort(Z.T, axis=1, kind="stable")
    zs = np.take_along_axis(Z.T, order, axis=1)
    feat, cut = np.nonzero(zs[:, 1:] > zs[:, :-1])
    flat = feat * zs.shape[1] + cut
    zs = zs.ravel()
    return _CutTable(order, flat, feat, 0.5 * (zs[flat] + zs[flat + 1]))


def _best_stump(cuts: _CutTable, w, z):
    """Weighted least-squares optimal single split.

    Returns (feature, threshold, left_value, right_value). Ties resolve to
    the lowest feature index, then the lowest threshold. When no feature
    has two distinct values the stump degenerates to the weighted mean
    (feature -1).

    One sweep over the cut table: the left sums at every boundary are read
    from one row-wise cumsum of w and of w * z in each column's order, so
    every gain equals the one-cut-at-a-time scalar bit for bit. The rule
    "a later cut wins only if its gain exceeds best + 1e-15" then runs, in
    scan order, over the cuts whose gain exceeds every earlier gain, the
    only ones that can win: a cut passed over had a gain at most the
    rounded best + 1e-15 of its turn, the best only grows, and rounding is
    monotone, so no slack is needed."""
    wz = w * z
    total_w = float(w.sum())
    total_wz = float(wz.sum())
    wl = np.cumsum(w.take(cuts.order), axis=1).take(cuts.flat)
    wzl = np.cumsum(wz.take(cuts.order), axis=1).take(cuts.flat)
    wr, wzr = total_w - wl, total_wz - wzl
    # a fit's weights are positive, so a boundary is dropped only when its
    # right sum rounds to 0: most searches keep every boundary
    dropped = (wl <= 0.0) | (wr <= 0.0)
    kept = None
    if dropped.any():
        kept = np.flatnonzero(~dropped)
        wl, wzl, wr, wzr = wl[kept], wzl[kept], wr[kept], wzr[kept]
    gain = wzl * wzl / wl + wzr * wzr / wr
    earlier = np.fmax.accumulate(np.concatenate(([-np.inf], gain)))
    records = np.flatnonzero(gain > earlier[:-1]).tolist()
    best, best_gain = None, -np.inf
    for k, g in zip(records, gain[records].tolist()):
        if g > best_gain + 1e-15:
            best, best_gain = k, g
    if best is None:
        mean = total_wz / total_w
        return (-1, 0.0, float(mean), float(mean))
    at = best if kept is None else kept[best]
    return (
        int(cuts.feat[at]), float(cuts.thr[at]),
        float(wzl[best] / wl[best]), float(wzr[best] / wr[best]),
    )


def _nll(F, y):
    return float(np.sum(np.logaddexp(0.0, F) - y * F))


@checked
def fit_logitboost(train: TrainingSet, rounds: Count, seed: int = 0) -> FittedModel:
    """Additive stumps fitted on the log-odds scale.

    Starts from the base-rate log odds; each round computes working
    responses and weights from current probabilities (clipped to
    [1e-5, 1-1e-5]), fits the best single-split stump by weighted least
    squares, and adds it. The columns' sort orders, boundaries and
    thresholds do not change between rounds, so they are found once, as
    the fit's cut table, and each round's search is one sweep over it.
    A stump that would raise the training loss is halved until it no
    longer does, so training loss never increases.
    Zero rounds yield the base-rate constant. It stops at "cap" with every
    round fitted, or as "degenerate" when the weights vanish."""
    _require_both_classes(train.y)
    Z, yv = train.Z, train.y
    cuts = _cut_table(Z)
    base = float(yv.mean())
    f0 = float(np.log(base / (1.0 - base)))
    F = np.full(len(yv), f0)
    loss = _nll(F, yv)
    stumps = []
    stop = "cap"
    for _ in range(rounds):
        prob = np.clip(_sigmoid(F), 1e-5, 1.0 - 1e-5)
        w = prob * (1.0 - prob)
        if not np.all(np.isfinite(w)) or float(w.sum()) <= 0.0:
            stop = "degenerate"
            break
        z = (yv - prob) / w
        feat, thr, lo, hi = _best_stump(cuts, w, z)
        contrib = np.full(len(yv), lo) if feat < 0 else np.where(Z[:, feat] < thr, lo, hi)
        scale = 1.0
        for _ in range(60):
            new_loss = _nll(F + scale * contrib, yv)
            if new_loss <= loss:
                break
            scale *= 0.5
        else:
            scale = 0.0
            new_loss = loss
        F = F + scale * contrib
        loss = new_loss
        stumps.append((feat, thr, scale * lo, scale * hi))
    return FittedModel(
        kind="logitboost",
        standardizer=train.standardizer,
        params={"f0": f0, "stumps": stumps, "rounds": rounds},
        diagnostics={"seed": seed},
        stop=stop, n_iter=len(stumps), objective=loss,
    )


def nn_loss(Z, y, W1, b1, w2, b2, decay):
    """Penalized cross-entropy, and the (A, f) that nn_grads reads.

    Loss = sum CE + decay*(||W1||^2 + ||w2||^2); biases are never
    penalized, so in the large-decay limit the network collapses to the
    base-rate constant."""
    A = _sigmoid(Z @ W1 + b1)
    f = A @ w2 + b2
    loss = _nll(f, y) + decay * (float(np.sum(W1**2)) + float(np.sum(w2**2)))
    return loss, (A, f)


def nn_grads(Z, y, W1, w2, decay, A, f):
    """Exact gradients (W1, b1, w2, b2) of nn_loss from its (A, f)."""
    delta = _sigmoid(f) - y
    g_w2 = A.T @ delta + 2.0 * decay * w2
    g_b2 = float(delta.sum())
    dh = np.outer(delta, w2) * A * (1.0 - A)
    g_W1 = Z.T @ dh + 2.0 * decay * W1
    g_b1 = dh.sum(axis=0)
    return g_W1, g_b1, g_w2, g_b2


@checked
def fit_neural_net(
    train: TrainingSet,
    hidden: Positive,
    decay: NonNegative,
    seed: int = 0,
    max_iter: Count = 2000,
    restarts: Positive = 3,
    grad_tol: NonNegative = 1e-5,
) -> FittedModel:
    """Single-hidden-layer logistic network by full-batch gradient descent
    with backtracking step control (``descend`` from step 0.01); best of
    `restarts` random starts by penalized training loss. A start whose loss
    is not finite has its weights scaled by 0.1, up to 5 times; the finite
    evaluation is where ``descend`` starts. The report is the winner's."""
    _require_both_classes(train.y)
    Z, yv = train.Z, train.y
    p = Z.shape[1]

    def value(x):
        return nn_loss(Z, yv, *x, decay)

    def gradient(x, aux):
        return nn_grads(Z, yv, x[0], x[2], decay, *aux)

    best = None
    failed_starts = 0
    for r in range(restarts):
        rng = np.random.default_rng(seed_for(seed, "nn-restart", r))
        W1 = rng.normal(0.0, 1.0 / np.sqrt(max(p, 1)), size=(p, hidden))
        w2 = rng.normal(0.0, 1.0 / np.sqrt(hidden), size=hidden)
        x = (W1, np.zeros(hidden), w2, 0.0)
        # a point that overflows (a huge decay) is a non-finite loss, which
        # the start scaling and descend's line search already reject
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(6):
                start = value(x)
                if np.isfinite(start[0]):
                    break
                x = (0.1 * x[0], x[1], 0.1 * x[2], x[3])
            else:
                failed_starts += 1
                continue
            x, loss, stop, it = descend(x, start, value, gradient, 0.01, max_iter, grad_tol)
        if best is None or loss < best[0]:
            best = (loss, x, stop, it)

    if best is None:
        raise FitError("neural net produced non-finite loss from every start")
    loss, (W1, b1, w2, b2), stop, it = best
    return FittedModel(
        kind="neural-net",
        standardizer=train.standardizer,
        params={"W1": W1, "b1": b1, "w2": w2, "b2": float(b2), "hidden": hidden, "decay": decay},
        diagnostics={"failed_starts": failed_starts, "seed": seed},
        stop=stop, n_iter=it, objective=loss,
    )


FIT_FUNCTIONS = {
    "logit": fit_logit,
    "elastic-net": fit_elastic_net,
    "logitboost": fit_logitboost,
    "neural-net": fit_neural_net,
}
LEARNERS = tuple(FIT_FUNCTIONS)
Learner = Literal[LEARNERS]


@dataclass(frozen=True)
class TuneGrid:
    """Hyperparameter grids searched by tune(); override per experiment."""

    enet_lambda: NonEmpty[NonNegative] = (0.001, 0.01, 0.1, 1.0, 10.0)
    nn_hidden: NonEmpty[Positive] = (2, 4, 8)
    nn_decay: NonEmpty[NonNegative] = (0.01, 0.1, 1.0)
    boost_rounds: NonEmpty[Count] = (10, 25, 50, 100, 200)

    def for_learner(self, kind: str) -> dict:
        """Learner `kind`'s axes, each sorted with its repeats dropped."""
        return {
            "logit": {},
            "elastic-net": {"lam": sorted(set(self.enet_lambda))},
            "logitboost": {"rounds": sorted(set(self.boost_rounds))},
            "neural-net": {
                "hidden": sorted(set(self.nn_hidden)), "decay": sorted(set(self.nn_decay))
            },
        }[kind]


@checked
def fit_learner(
    kind: Learner,
    train: TrainingSet,
    params: dict | None = None,
    seed: int = 0,
    grid: "TuneGrid | None" = None,
    folds: Folds = 5,
) -> FittedModel:
    """Fit learner `kind` with the keywords in params. The hyperparameters
    (the axes of grid.for_learner(kind)) that params leaves unset or None
    are first chosen by one tune() call, which hands every other key of
    params to its cross-validation fits; diagnostics["tuning"] records
    the choice."""
    params = {k: v for k, v in (params or {}).items() if v is not None}
    fit = FIT_FUNCTIONS[kind]
    if set((grid or TuneGrid()).for_learner(kind)) <= set(params):
        return fit(train, seed=seed, **params)
    result = tune(kind, train, grid, folds, seed, params)
    model = fit(train, seed=seed, **{**params, **result.params})
    model.diagnostics["tuning"] = {
        "params": result.params,
        "score": result.score,
        "folds": result.folds_used,
        "extensions": result.extensions,
        "at_boundary": result.at_boundary,
    }
    return model


def learner_keywords(kind: str) -> dict:
    """The learner_params keys learner `kind` accepts, each with its declared
    type: the keywords of its fit function but train and seed, where the
    hyperparameters fit_learner can tune also take None."""
    fit = FIT_FUNCTIONS[kind]
    types = typing.get_type_hints(fit, include_extras=True)
    axes = TuneGrid().for_learner(kind)
    return {
        name: types[name] | None if name in axes else types[name]
        for name in inspect.signature(fit).parameters
        if name not in ("train", "seed")
    }


def cv_folds(y, folds: int, seed: int) -> np.ndarray:
    """Stratified fold assignment: each class is shuffled once, then dealt
    round-robin, so every fold holds positives whenever folds <= n_pos."""
    y = np.asarray(y)
    rng = np.random.default_rng(seed_for(seed, "cv-folds"))
    assign = np.zeros(len(y), dtype=int)
    for cls in (0, 1):
        members = np.flatnonzero(y == cls)
        members = members[rng.permutation(len(members))]
        assign[members] = np.arange(len(members)) % folds
    return assign


def _geometric_extension(values, side):
    """Next grid point past the boundary, spaced like the existing grid; a
    zero leaves no ratio to space by and a point past the largest float is
    none, so in both cases the boundary comes back."""
    if all(float(v).is_integer() for v in values):
        if side == "low":
            return max(1, int(values[0]) // 2)
        high = int(values[-1]) * 2
    elif side == "low":
        return values[0] / (values[1] / values[0]) if values[0] else values[0]
    else:
        high = values[-1] * (values[-1] / values[-2]) if values[-2] else values[-1]
    return high if abs(high) <= sys.float_info.max else values[-1]


@dataclass
class TuneResult:
    """The chosen params; score is None when no candidate was
    cross-validated."""

    params: dict
    score: float | None
    table: list
    folds_used: int
    extensions: int
    at_boundary: bool


@checked
def tune(
    kind: Learner,
    train: TrainingSet,
    grid: TuneGrid | None = None,
    folds: Folds = 5,
    seed: int = 0,
    params: dict | None = None,
) -> TuneResult:
    """Pick hyperparameters by stratified k-fold CV on mean validation
    area under the precision-recall curve.

    A candidate is a grid key, one value per axis in sorted axis order.
    Each round's winner is the first best key in ``itertools.product``
    order, and no key is scored twice. A winner on an end of an axis
    extends the first such axis that grows, low end before high, by a
    geometric step (at most TUNE_MAX_EXTENSIONS times overall, none once
    the best score is not finite); a winner still on an end is accepted
    and flagged. An axis that params sets (not None) is searched at that
    one value, and every key of params reaches every cross-validation fit.
    Learners without hyperparameters return immediately. Folds shrink as
    needed so every fold holds both classes; fewer than 2 of either class
    cannot be folded at all."""
    params = {k: v for k, v in (params or {}).items() if v is not None}
    grid_axes = (grid or TuneGrid()).for_learner(kind)
    space = {a: [params[a]] if a in params else grid_axes[a] for a in sorted(grid_axes)}
    if not space:
        return TuneResult({}, None, [], 0, 0, False)

    y = train.y
    n_pos = int((y == 1).sum())
    n_neg = int((y == 0).sum())
    if n_pos < 2 or n_neg < 2:
        raise TuningError(
            f"need at least 2 of each class to cross-validate, have {n_pos} pos / {n_neg} neg"
        )
    folds_used = max(2, min(folds, n_pos, n_neg))
    assign = cv_folds(y, folds_used, seed)
    if all(len(vals) == 1 for vals in space.values()):
        return TuneResult({a: vals[0] for a, vals in space.items()}, None, [], folds_used, 0, False)

    scores: dict = {}

    def score(key):
        if key not in scores:
            vals = []
            for f in range(folds_used):
                held = assign == f
                try:
                    model = fit_learner(
                        kind, train.subset(~held), {**params, **dict(zip(space, key))},
                        seed=seed_for(seed, "cv-fit", f),
                    )
                    p = _sigmoid(model.decision(train.Z[held]))
                    vals.append(pr_curve(p, y[held]))
                except (FitError, EvaluationError):
                    vals.append(-np.inf)
            scores[key] = float(np.mean(vals))
        return scores[key]

    extensions = 0
    while True:
        best = max(itertools.product(*space.values()), key=score)
        if extensions == TUNE_MAX_EXTENSIONS or not np.isfinite(scores[best]):
            break
        for (a, vals), value in zip(space.items(), best):
            if len(vals) < 2 or value not in (vals[0], vals[-1]):
                continue
            grown = sorted(set(vals) | {
                _geometric_extension(vals, "low" if value == vals[0] else "high")
            })
            if grown != vals:
                space[a] = grown
                extensions += 1
                break
        else:
            break

    if not np.isfinite(scores[best]):
        raise TuningError(f"no {kind} candidate could be fit on any fold")
    at_boundary = any(
        len(vals) > 1 and value in (vals[0], vals[-1])
        for vals, value in zip(space.values(), best)
    )
    table = [(dict(zip(space, key)), val) for key, val in sorted(scores.items())]
    return TuneResult(
        dict(zip(space, best)), scores[best], table, folds_used, extensions, at_boundary
    )
