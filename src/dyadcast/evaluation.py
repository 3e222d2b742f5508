"""Rare-event scoring: AUC-ROC and AUC-PR, bootstrap intervals, rolling
means, and the coefficient-ratio diagnostic.

Undefined quantities (ratios with a vanishing denominator, rolling windows
without a defined value) are marked with NaN rather than raising, so
callers can carry them through tables; genuinely unanswerable requests
(areas without both classes) raise EvaluationError instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codec import Level, Positive, checked
from .errors import EvaluationError, SchemaError

UNDEFINED = float("nan")


def _grouped_counts(scores, labels):
    """Cumulative (tp, count) at the end of each distinct-score group, in
    descending score order."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    if scores.shape != labels.shape:
        raise ValueError(f"scores shape {scores.shape} != labels shape {labels.shape}")
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    y = labels[order]
    # indices of the last element of each tied group
    ends = np.flatnonzero(np.diff(s) != 0)
    ends = np.append(ends, len(s) - 1)
    cum_tp = np.cumsum(y)[ends]
    cum_n = ends + 1
    return cum_tp, cum_n, int(labels.sum()), len(labels)


def roc_curve(scores, labels) -> float:
    """AUC-ROC: the trapezoid area under the threshold sweep, one point per
    distinct score (descending) anchored at (0,0). It equals the
    Mann-Whitney statistic with half credit for ties."""
    cum_tp, cum_n, P, n = _grouped_counts(scores, labels)
    N = n - P
    if P == 0 or N == 0:
        raise EvaluationError(f"ROC needs both classes, have {P} positives of {n}")
    fpr = np.concatenate([[0.0], (cum_n - cum_tp) / N])
    tpr = np.concatenate([[0.0], cum_tp / P])
    return float(np.trapezoid(tpr, fpr))


def pr_curve(scores, labels) -> float:
    """AUC-PR as average precision.

    Tied scores are processed as one group: every positive in a group
    receives the precision at the group's end. With all scores tied this
    makes the value exactly the positive rate. Under a uniformly random
    ranking of distinct scores its expectation is not the positive rate
    but (m-1)/(n-1) + (n-m)*H_n/(n(n-1)) for m positives among n, with H_n
    the n-th harmonic number (``expected_ap_random`` in the tests).
    """
    cum_tp, cum_n, P, _ = _grouped_counts(scores, labels)
    if P == 0:
        raise EvaluationError("PR is undefined without positives")
    new_tp = np.diff(np.concatenate([[0], cum_tp]))
    return float(np.sum(new_tp * (cum_tp / cum_n)) / P)


@checked
def bootstrap_ci(values, replicates: Positive = 10000, seed: int = 0, level: Level = 0.95):
    """Percentile interval of resampled means."""
    values = np.asarray(values, dtype=float)
    if len(values) < 2:
        raise ValueError(f"bootstrap needs >= 2 values, got {len(values)}")
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, len(values), size=(replicates, len(values)))
    means = values[idx].mean(axis=1)
    alpha = (1.0 - level) / 2.0
    return _quantiles(means, (alpha, 1.0 - alpha))


def _quantiles(values, qs) -> tuple:
    """``np.quantile(values, qs)`` bit for bit (its default linear method),
    by sorting and interpolating: np.quantile calls np.unique, which
    imports numpy.ma on first use."""
    ordered = np.sort(values).tolist()
    n, last = len(ordered), ordered[-1]
    if math.isnan(last):  # NaN sorts last, and numpy returns it for every q
        return tuple(last for _ in qs)
    out = []
    for q in qs:
        virtual = (n - 1) * q
        if virtual < n - 1:
            below = math.floor(virtual)
            above = below + 1
        else:  # numpy reads the last value, through index -1, at both ends
            below = above = -1
        a, b, t = ordered[below], ordered[above], virtual - below
        diff = b - a
        out.append(b - diff * (1 - t) if t >= 0.5 else a + diff * t)
    return tuple(out)


def rolling_mean(series, width: int = 3):
    """Centered rolling mean over a period-indexed series.

    Endpoint windows are truncated to whatever is available. NaN entries
    are excluded from their windows; a window with no defined values
    yields NaN. Returns [(period, mean)] sorted by period.
    """
    if width % 2 != 1 or width < 1:
        raise ValueError(f"width must be odd and positive, got {width}")
    items = sorted(dict(series).items())
    if not items:
        return []
    periods = [p for p, _ in items]
    vals = np.array([v for _, v in items], dtype=float)
    half = width // 2
    out = []
    for i, p in enumerate(periods):
        window = vals[max(0, i - half): i + half + 1]
        defined = window[~np.isnan(window)]
        out.append((p, float(defined.mean()) if len(defined) else UNDEFINED))
    return out


SELECTION_THRESHOLD = 0.01


def coefficient_ratio(en_model, logit_model) -> list:
    """Rows (feature, ratio, selected) of |beta_elastic-net| / |beta_logit|
    on the standardized scale. A logit coefficient below 1e-12 in
    magnitude makes the ratio NaN (selected flag None); otherwise
    selected = ratio >= 0.01."""
    en = en_model.coefficients()
    base = logit_model.coefficients()
    if tuple(en) != tuple(base):
        raise SchemaError(f"coefficient schemas differ: {tuple(en)} vs {tuple(base)}")
    entries = []
    for feature in en:
        denom = abs(base[feature])
        if denom < 1e-12:
            entries.append((feature, UNDEFINED, None))
        else:
            ratio = abs(en[feature]) / denom
            entries.append((feature, float(ratio), ratio >= SELECTION_THRESHOLD))
    return entries


@dataclass
class RatioSeries:
    """Coefficient ratios over periods for one (lag, spec-class) run.

    rows: (period, feature, ratio, selected). Smoothing adds a 3-period
    centered rolling mean per feature.
    """

    rows: list

    def add(self, period: int, entries) -> None:
        self.rows.extend((period, *entry) for entry in entries)

    def with_smoothing(self, width: int = 3) -> list:
        """Rows (period, feature, ratio, smoothed, selected) sorted by
        (feature, period)."""
        by_feature: dict = {}
        for period, feature, ratio, selected in self.rows:
            by_feature.setdefault(feature, []).append((period, ratio, selected))
        out = []
        for feature in sorted(by_feature):
            items = sorted(by_feature[feature])
            smoothed = dict(rolling_mean([(p, r) for p, r, _ in items], width))
            for period, ratio, selected in items:
                out.append((period, feature, ratio, smoothed[period], selected))
        return out
