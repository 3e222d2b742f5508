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
from typing import Literal

import numpy as np

from .codec import Count, Folds, NonEmpty, NonNegative, Positive, Saved, checked
from .descent import descend
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
        kept = np.flatnonzero(sds > tol)
        dropped = tuple(names[k] for k in range(len(names)) if k not in set(kept))
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
        if set(np.unique(y)) - {0.0, 1.0}:
            raise FitError("labels must be 0/1")
        if not np.all(np.isfinite(X)):
            raise FitError("non-finite feature values")
        std = Standardizer.fit(X, names)
        return TrainingSet(Z=std.transform(X, names), y=y, standardizer=std)

    def subset(self, idx) -> "TrainingSet":
        return TrainingSet(Z=self.Z[idx], y=self.y[idx], standardizer=self.standardizer)

    def kept_names(self) -> tuple:
        return self.standardizer.kept_names()

    @property
    def n_positive(self) -> int:
        return int((self.y == 1).sum())


def _require_both_classes(y: np.ndarray) -> None:
    if len(y) == 0 or y.min() == y.max():
        raise FitError("single-class labels: nothing to fit")


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-np.clip(x, -500, 500)))


@dataclass
class FittedModel(Saved):
    """One trained classifier: kind, schema, parameters, fit diagnostics."""

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
    +-COEF_CAP to tame quasi-separation."""
    n, p = Z.shape
    D = np.hstack([np.ones((n, 1)), Z])
    beta = np.zeros(p + 1)
    capped = False
    converged = False
    it = 0
    for it in range(1, IRLS_MAX_ITER + 1):
        eta = D @ beta
        mu = _sigmoid(eta)
        grad = D.T @ (y - mu)
        if np.max(np.abs(grad)) < IRLS_GRAD_TOL:
            converged = True
            break
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
    return beta, converged, capped, it


def fit_logit(train: TrainingSet, seed: int = 0) -> FittedModel:
    """Maximum-likelihood logistic regression via IRLS. IRLS draws nothing
    at random; seed is taken so that every fit function is called alike."""
    _require_both_classes(train.y)
    beta, converged, capped, it = _irls(train.Z, train.y)
    return FittedModel(
        kind="logit",
        standardizer=train.standardizer,
        params={"intercept": float(beta[0]), "coef": beta[1:]},
        diagnostics={"converged": converged, "capped": capped, "n_iter": it},
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
    The diagnostics count the outer steps (``n_outer``) and the inner
    loops that stopped at their 1000-sweep cap short of the 1e-11
    tolerance (``capped_inner``).

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
    converged = False
    outer = capped_inner = 0
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
            capped_inner += 1
        step = max(map(abs, map(operator.sub, beta, b_old)), default=0.0)
        if max(abs(beta0 - b0_old), step) < 1e-9:
            converged = True
            break
    beta = np.array(beta)

    std = train.standardizer
    raw_coef = np.zeros(len(std.input_names))
    scaled = beta / std.sds if p else beta
    raw_coef[std.kept] = scaled
    raw_intercept = beta0 - float(np.sum(scaled * std.means)) if p else beta0
    diagnostics = {
        "converged": converged,
        "n_outer": outer,
        "capped_inner": capped_inner,
        "seed": seed,
    }
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
        diagnostics=diagnostics,
    )


def _best_stump(Z, w, z, orders):
    """Weighted least-squares optimal single split.

    Returns (feature, threshold, left_value, right_value). Ties resolve to
    the lowest feature index, then the lowest threshold. When no feature
    has two distinct values the stump degenerates to the weighted mean
    (feature -1).

    Each column's gains at all of its boundaries are computed as arrays.
    The rule "a later cut wins only if its gain exceeds best + 1e-15" then
    runs, in scan order, over the cuts whose gain exceeds every earlier
    gain, the only ones that can win: a cut passed over had a gain at most
    the rounded best + 1e-15 of its turn, the best only grows, and rounding
    is monotone, so no slack is needed."""
    total_w = float(w.sum())
    total_wz = float((w * z).sum())
    wz = w * z
    best = None
    best_gain = top = -np.inf
    for feat, order in enumerate(orders):
        zs = Z[order, feat]
        cut = np.flatnonzero(zs[1:] > zs[:-1])
        wl = np.cumsum(w[order])[cut]
        wzl = np.cumsum(wz[order])[cut]
        wr, wzr = total_w - wl, total_wz - wzl
        keep = ~((wl <= 0.0) | (wr <= 0.0))
        cut, wl, wzl, wr, wzr = cut[keep], wl[keep], wzl[keep], wr[keep], wzr[keep]
        gain = wzl * wzl / wl + wzr * wzr / wr
        earlier = np.fmax.accumulate(np.concatenate(([top], gain)))
        top = earlier[-1]
        for k in np.flatnonzero(gain > earlier[:-1]).tolist():
            if gain[k] > best_gain + 1e-15:
                best_gain = gain[k]
                thr = 0.5 * (zs[cut[k]] + zs[cut[k] + 1])
                best = (feat, float(thr), float(wzl[k] / wl[k]), float(wzr[k] / wr[k]))
    if best is None:
        mean = total_wz / total_w
        return (-1, 0.0, float(mean), float(mean))
    return best


def _nll(F, y):
    return float(np.sum(np.logaddexp(0.0, F) - y * F))


@checked
def fit_logitboost(train: TrainingSet, rounds: Count, seed: int = 0) -> FittedModel:
    """Additive stumps fitted on the log-odds scale.

    Starts from the base-rate log odds; each round computes working
    responses and weights from current probabilities (clipped to
    [1e-5, 1-1e-5]), fits the best single-split stump by weighted least
    squares, and adds it. A stump that would raise the training loss is
    halved until it no longer does, so training loss never increases.
    Zero rounds yield the base-rate constant."""
    _require_both_classes(train.y)
    Z, yv = train.Z, train.y
    orders = [np.argsort(Z[:, k], kind="stable") for k in range(Z.shape[1])]
    base = float(yv.mean())
    f0 = float(np.log(base / (1.0 - base)))
    F = np.full(len(yv), f0)
    loss = _nll(F, yv)
    stumps = []
    degenerate = False
    for _ in range(rounds):
        prob = np.clip(_sigmoid(F), 1e-5, 1.0 - 1e-5)
        w = prob * (1.0 - prob)
        if not np.all(np.isfinite(w)) or float(w.sum()) <= 0.0:
            degenerate = True
            break
        z = (yv - prob) / w
        feat, thr, lo, hi = _best_stump(Z, w, z, orders)
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
    diagnostics = {
        "rounds": rounds,
        "rounds_used": len(stumps),
        "final_loss": loss,
        "degenerate_stop": degenerate,
        "seed": seed,
    }
    return FittedModel(
        kind="logitboost",
        standardizer=train.standardizer,
        params={"f0": f0, "stumps": stumps},
        diagnostics=diagnostics,
    )


def nn_loss(Z, y, W1, b1, w2, b2, decay):
    """Penalized cross-entropy, and the (A, f) that nn_grads reads.

    Loss = sum CE + decay*(||W1||^2 + ||w2||^2); biases are never
    penalized, so in the large-decay limit the network collapses to the
    base-rate constant."""
    A = _sigmoid(Z @ W1 + b1)
    f = A @ w2 + b2
    loss = float(np.sum(np.logaddexp(0.0, f) - y * f))
    loss += decay * (float(np.sum(W1**2)) + float(np.sum(w2**2)))
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


def nn_loss_and_grads(Z, y, W1, b1, w2, b2, decay):
    """nn_loss and its nn_grads, as (loss, g_W1, g_b1, g_w2, g_b2)."""
    loss, (A, f) = nn_loss(Z, y, W1, b1, w2, b2, decay)
    return (loss, *nn_grads(Z, y, W1, w2, decay, A, f))


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
    is not finite has its weights scaled by 0.1, up to 5 times."""
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
        for _ in range(6):
            if np.isfinite(value(x)[0]):
                break
            x = (0.1 * x[0], x[1], 0.1 * x[2], x[3])
        else:
            failed_starts += 1
            continue
        x, loss, converged, _ = descend(x, value, gradient, 0.01, max_iter, grad_tol)
        if best is None or loss < best[0]:
            best = (loss, *x, converged)

    if best is None:
        raise FitError("neural net produced non-finite loss from every start")
    loss, W1, b1, w2, b2, converged = best
    diagnostics = {
        "converged": converged,
        "loss": loss,
        "failed_starts": failed_starts,
        "seed": seed,
    }
    return FittedModel(
        kind="neural-net",
        standardizer=train.standardizer,
        params={"W1": W1, "b1": b1, "w2": w2, "b2": float(b2), "hidden": hidden, "decay": decay},
        diagnostics=diagnostics,
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
        return {
            "logit": {},
            "elastic-net": {"lam": sorted(self.enet_lambda)},
            "logitboost": {"rounds": sorted(self.boost_rounds)},
            "neural-net": {"hidden": sorted(self.nn_hidden), "decay": sorted(self.nn_decay)},
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
    params: dict
    score: float
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

    A winner sitting on a grid boundary triggers a geometric extension of
    that axis (at most TUNE_MAX_EXTENSIONS times overall; still-boundary
    results are accepted and flagged). Ties prefer the earliest candidate
    in deterministic grid order. An axis that params sets (not None) is
    searched at that one value, and every key of params reaches every
    cross-validation fit. Learners without hyperparameters return
    immediately. Folds shrink as needed so every fold holds both classes;
    fewer than 2 of either class cannot be folded at all."""
    params = {k: v for k, v in (params or {}).items() if v is not None}
    space = {
        a: [params[a]] if a in params else vals
        for a, vals in (grid or TuneGrid()).for_learner(kind).items()
    }
    if not space:
        return TuneResult({}, float("nan"), [], 0, 0, False)

    y = train.y
    n_pos = int((y == 1).sum())
    n_neg = int((y == 0).sum())
    if n_pos < 2 or n_neg < 2:
        raise TuningError(
            f"need at least 2 of each class to cross-validate, have {n_pos} pos / {n_neg} neg"
        )
    folds_used = max(2, min(folds, n_pos, n_neg))
    assign = cv_folds(y, folds_used, seed)

    axes = sorted(space)
    single_point = all(len(space[a]) == 1 for a in axes)
    if single_point:
        params = {a: space[a][0] for a in axes}
        return TuneResult(params, float("nan"), [], folds_used, 0, False)

    scores: dict = {}

    def score_candidate(cand):
        key = tuple(cand[a] for a in axes)
        if key in scores:
            return scores[key]
        vals = []
        for f in range(folds_used):
            tr_idx, val_idx = assign != f, assign == f
            try:
                model = fit_learner(
                    kind, train.subset(tr_idx), {**params, **cand},
                    seed=seed_for(seed, "cv-fit", f),
                )
                p = _sigmoid(model.decision(train.Z[val_idx]))
                vals.append(pr_curve(p, y[val_idx]).auc)
            except (FitError, EvaluationError):
                vals.append(-np.inf)
        scores[key] = float(np.mean(vals))
        return scores[key]

    extensions = 0
    while True:
        candidates = [
            dict(zip(axes, combo))
            for combo in itertools.product(*(space[a] for a in axes))
        ]
        best_params, best_score = None, -np.inf
        for cand in candidates:
            s = score_candidate(cand)
            if s > best_score:
                best_params, best_score = cand, s
        grew = False
        if extensions < TUNE_MAX_EXTENSIONS and np.isfinite(best_score):
            for a in axes:
                vals = space[a]
                if len(vals) < 2:
                    continue
                if best_params[a] == vals[0]:
                    new_vals = sorted(set(vals) | {_geometric_extension(vals, "low")})
                elif best_params[a] == vals[-1]:
                    new_vals = sorted(set(vals) | {_geometric_extension(vals, "high")})
                else:
                    continue
                if new_vals != vals:
                    space[a] = new_vals
                    grew = True
                    extensions += 1
                    break
        if not grew:
            break

    if best_params is None or not np.isfinite(best_score):
        raise TuningError(f"no {kind} candidate could be fit on any fold")
    at_boundary = any(
        len(space[a]) > 1 and best_params[a] in (space[a][0], space[a][-1])
        for a in axes
    )
    table = [
        ({a: k for a, k in zip(axes, key)}, val) for key, val in sorted(scores.items())
    ]
    return TuneResult(best_params, best_score, table, folds_used, extensions, at_boundary)
