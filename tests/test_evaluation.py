import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dyadcast import (
    EvaluationError,
    RatioSeries,
    SchemaError,
    TrainingSet,
    bootstrap_ci,
    coefficient_ratio,
    fit_elastic_net,
    fit_logit,
    pr_curve,
    roc_curve,
    rolling_mean,
)
from dyadcast.evaluation import SELECTION_THRESHOLD, _quantiles

from helpers import (
    average_precision_oracle, curve_oracle, expected_ap_random, mann_whitney_auc,
    threshold_rates,
)

SCORES4 = [0.9, 0.8, 0.3, 0.1]
LABELS4 = [1, 0, 1, 0]
AREA = {"ROC": roc_curve, "PR": pr_curve}


def checked_curve(kind, scores, labels):
    """The oracle's curve, once its area is seen to equal the library's bit
    for bit, so that its points are the ones the library integrates."""
    curve = curve_oracle(kind, scores, labels)
    assert curve.auc == AREA[kind](scores, labels)
    return curve


# ---------------------------------------------------------------- curves

def test_roc_worked_example():
    assert roc_curve(SCORES4, LABELS4) == 0.75


def test_pr_worked_example():
    assert pr_curve(SCORES4, LABELS4) == pytest.approx(5.0 / 6.0, abs=1e-15)


def test_perfect_ranking():
    scores = [0.9, 0.8, 0.2, 0.1]
    labels = [1, 1, 0, 0]
    assert roc_curve(scores, labels) == 1.0
    assert pr_curve(scores, labels) == 1.0


def test_inverted_ranking():
    scores = [0.1, 0.2, 0.8, 0.9]
    labels = [1, 1, 0, 0]
    assert roc_curve(scores, labels) == 0.0


def test_all_tied_scores():
    scores = [0.25, 0.25, 0.25, 0.25]
    labels = [1, 0, 1, 0]
    assert roc_curve(scores, labels) == 0.5
    assert pr_curve(scores, labels) == 0.5  # exactly the positive rate


def test_single_class_rejected():
    with pytest.raises(EvaluationError):
        roc_curve([0.1, 0.2], [1, 1])
    with pytest.raises(EvaluationError):
        roc_curve([0.1, 0.2], [0, 0])
    with pytest.raises(EvaluationError):
        pr_curve([0.1, 0.2], [0, 0])


def test_contingency_counts():
    # the point for threshold 0.8 on SCORES4 counts tp = fp = fn = tn = 1
    assert checked_curve("ROC", SCORES4, LABELS4).points[2] == (0.5, 0.5)
    assert checked_curve("PR", SCORES4, LABELS4).points[2] == (0.5, 0.5)
    # one point per distinct score, plus the anchor
    assert len(checked_curve("ROC", SCORES4, LABELS4).points) == len(SCORES4) + 1
    assert len(checked_curve("PR", SCORES4, LABELS4).points) == len(SCORES4) + 1


def test_contingency_threshold_is_inclusive():
    # the first threshold, 0.5, already counts the score equal to it
    assert checked_curve("ROC", [0.5, 0.4], [1, 0]).points[1] == (0.0, 1.0)
    assert checked_curve("PR", [0.5, 0.4], [1, 0]).points[1] == (1.0, 1.0)


def test_metrics_conventions():
    # precision, recall and fpr are all 0.5 at the middle threshold
    fpr, rec = checked_curve("ROC", SCORES4, LABELS4).points[2]
    rec_pr, prec = checked_curve("PR", SCORES4, LABELS4).points[2]
    assert (prec, rec, fpr) == (0.5, 0.5, 0.5) and rec_pr == rec
    # nothing predicted positive: precision 1 by convention, rates 0
    assert checked_curve("PR", [0.1, 0.2], [1, 0]).points[0] == (0.0, 1.0)
    assert checked_curve("ROC", [0.1, 0.2], [1, 0]).points[0] == (0.0, 0.0)
    # without positives recall is undefined, so neither curve exists
    with pytest.raises(EvaluationError):
        pr_curve([0.9, 0.1], [0, 0])
    with pytest.raises(EvaluationError):
        roc_curve([0.9, 0.1], [0, 0])
    # without negatives fpr is undefined: no ROC, but PR is defined
    with pytest.raises(EvaluationError):
        roc_curve([0.9, 0.1], [1, 1])
    assert checked_curve("PR", [0.9, 0.1], [1, 1]).points[1] == (0.5, 1.0)


def test_curve_points_match_threshold_oracle():
    """Each curve point after the anchor is the rate pair of predicting
    positive every score at or above one distinct score, taken in
    descending order, so tied scores enter together."""
    rng = np.random.default_rng(3)
    scores = np.concatenate([SCORES4, rng.integers(0, 6, size=30) / 6.0])
    labels = np.concatenate([LABELS4, (rng.random(30) < 0.3).astype(int)])
    thresholds = sorted(set(scores.tolist()), reverse=True)
    rates = [threshold_rates(scores, labels, t) for t in thresholds]
    assert checked_curve("ROC", scores, labels).points[1:] == tuple((f, r) for _, r, f in rates)
    assert checked_curve("PR", scores, labels).points[1:] == tuple((r, p) for p, r, _ in rates)


def test_curve_anchors_and_monotone_axes():
    rng = np.random.default_rng(2)
    scores = rng.integers(0, 8, size=50) / 8.0
    labels = (rng.random(50) < 0.3).astype(int)
    labels[0], labels[1] = 1, 0
    roc = checked_curve("ROC", scores, labels)
    assert roc.points[0] == (0.0, 0.0)
    assert roc.points[-1] == (1.0, 1.0)
    xs = [p[0] for p in roc.points]
    ys = [p[1] for p in roc.points]
    assert xs == sorted(xs) and ys == sorted(ys)
    pr = checked_curve("PR", scores, labels)
    assert pr.points[0] == (0.0, 1.0)
    assert pr.points[-1][0] == 1.0
    rec = [p[0] for p in pr.points]
    assert rec == sorted(rec)


score_label_sets = st.lists(
    st.tuples(st.integers(0, 8), st.integers(0, 1)), min_size=2, max_size=60
).filter(lambda rows: {y for _, y in rows} == {0, 1})


@given(score_label_sets)
def test_roc_auc_equals_rank_statistic(rows):
    scores = [s / 8.0 for s, _ in rows]
    labels = [y for _, y in rows]
    assert roc_curve(scores, labels) == pytest.approx(
        mann_whitney_auc(scores, labels), abs=1e-12
    )


@given(score_label_sets)
def test_pr_auc_equals_average_precision_oracle(rows):
    scores = [s / 8.0 for s, _ in rows]
    labels = [y for _, y in rows]
    assert pr_curve(scores, labels) == pytest.approx(
        average_precision_oracle(scores, labels), abs=1e-12
    )


@given(score_label_sets)
def test_aucs_invariant_under_monotone_transform(rows):
    scores = np.array([s / 8.0 for s, _ in rows])
    labels = [y for _, y in rows]
    for transformed in (3.0 * scores + 7.0, scores**3):
        # transforms exceed [0,1] but curves only use the ordering
        assert roc_curve(transformed, labels) == pytest.approx(
            roc_curve(scores, labels), abs=1e-12
        )
        assert pr_curve(transformed, labels) == pytest.approx(
            pr_curve(scores, labels), abs=1e-12
        )


@given(score_label_sets)
def test_roc_label_flip_symmetry(rows):
    scores = [s / 8.0 for s, _ in rows]
    labels = np.array([y for _, y in rows])
    assert roc_curve(scores, 1 - labels) == pytest.approx(
        1.0 - roc_curve(scores, labels), abs=1e-12
    )


float_score_label_sets = st.lists(
    st.tuples(st.floats(0.0, 1.0), st.integers(0, 1)), min_size=2, max_size=60
).filter(lambda rows: {y for _, y in rows} == {0, 1})


@given(st.one_of(
    score_label_sets.map(lambda rows: [(s / 8.0, y) for s, y in rows]), float_score_label_sets
))
@example([(0.25, 1), (0.25, 0), (0.25, 0), (0.25, 1)])  # all scores tied
@example([(0.5, 0), (0.125, 1), (0.75, 0), (0.5, 0)])  # a single positive
@example([(0.5, 1), (0.5, 0)])  # a single positive tied with the only negative
def test_aucs_equal_curve_oracle_bit_for_bit(rows):
    scores = [s for s, _ in rows]
    labels = [y for _, y in rows]
    roc, pr = roc_curve(scores, labels), pr_curve(scores, labels)
    assert type(roc) is float and type(pr) is float
    assert roc == curve_oracle("ROC", scores, labels).auc
    assert pr == curve_oracle("PR", scores, labels).auc


# --------------------------------------------- average precision baseline

@pytest.mark.parametrize("n,p", [(6, 2), (7, 3), (5, 1)])
def test_average_precision_random_baseline_exact(n, p):
    """Mean AP over every placement of p positives among n distinct ranks
    equals the closed-form random-ranking baseline."""
    scores = np.linspace(1.0, 0.0, n)
    aps = []
    for pos in combinations(range(n), p):
        y = np.zeros(n)
        y[list(pos)] = 1
        aps.append(pr_curve(scores, y))
    assert np.mean(aps) == pytest.approx(expected_ap_random(n, p), abs=1e-12)


def test_average_precision_random_baseline_sampled():
    rng = np.random.default_rng(11)
    n, p, draws = 200, 10, 400
    vals = []
    for _ in range(draws):
        y = np.zeros(n)
        y[rng.choice(n, size=p, replace=False)] = 1
        vals.append(pr_curve(rng.permutation(n) / n, y))
    vals = np.array(vals)
    se = vals.std(ddof=1) / np.sqrt(draws)
    assert abs(vals.mean() - expected_ap_random(n, p)) <= 3 * se


def test_average_precision_exceeds_prevalence_under_random_scores():
    """The random-scores baseline sits above the positive rate: the
    closed-form expectation carries a (harmonic-number) excess over p/n,
    and centering each draw on its conditional expectation absorbs it."""
    rng = np.random.default_rng(5)
    n, rate, draws = 500, 0.02, 300
    diffs = []
    for _ in range(draws):
        while True:
            y = (rng.random(n) < rate).astype(int)
            if y.sum() >= 1:
                break
        diffs.append(pr_curve(rng.permutation(n) / n, y) - expected_ap_random(n, int(y.sum())))
    diffs = np.array(diffs)
    se = diffs.std(ddof=1) / np.sqrt(draws)
    assert abs(diffs.mean()) <= 3 * se
    assert expected_ap_random(n, max(1, int(round(rate * n)))) > rate


# -------------------------------------------------------------- bootstrap

def test_bootstrap_constant_series():
    lo, hi = bootstrap_ci([0.4, 0.4, 0.4], replicates=100, seed=0)
    assert lo == pytest.approx(0.4, abs=1e-15)
    assert hi == pytest.approx(0.4, abs=1e-15)
    assert lo == hi


def test_bootstrap_contains_sample_mean():
    rng = np.random.default_rng(1)
    vals = rng.normal(size=25)
    lo, hi = bootstrap_ci(vals, replicates=5000, seed=3)
    assert lo <= vals.mean() <= hi


def test_bootstrap_matches_independent_resampler():
    vals = np.random.default_rng(42).normal(size=30)
    lo, hi = bootstrap_ci(vals, replicates=200000, seed=1)
    rs = np.random.RandomState(7)
    means = np.array([vals[rs.randint(0, 30, 30)].mean() for _ in range(200000)])
    olo, ohi = np.quantile(means, [0.025, 0.975])
    assert lo == pytest.approx(olo, abs=0.01)
    assert hi == pytest.approx(ohi, abs=0.01)


def test_bootstrap_deterministic():
    vals = np.random.default_rng(6).normal(size=12)
    assert bootstrap_ci(vals, seed=8) == bootstrap_ci(vals, seed=8)
    assert bootstrap_ci(vals, seed=8) != bootstrap_ci(vals, seed=9)


# -0.0 is mapped to 0.0: np.quantile partitions where _quantiles sorts, and
# the two may order equal zeros of opposite sign differently
SAMPLE_FLOATS = st.floats(allow_subnormal=True).map(lambda x: x + 0.0)


@settings(max_examples=300)
@given(
    st.lists(SAMPLE_FLOATS, min_size=1, max_size=40),
    st.lists(st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 0.025, 0.5, 0.975, 1.0])),
             min_size=1, max_size=4),
)
@example([0.1] * 7 + [0.3], [0.025, 0.975])
@example([1.0, math.inf], [1.0])
@example([math.nan, 1.0], [0.5])
def test_quantiles_match_numpy_bit_for_bit(values, qs):
    """Sort-and-interpolate gives np.quantile's linear method exactly,
    NaN, infinite and subnormal samples included."""
    with np.errstate(invalid="ignore"):
        want = np.quantile(np.array(values), qs).tolist()
    got = _quantiles(np.array(values), qs)
    assert [float.hex(v) for v in got] == [float.hex(v) for v in want]


@pytest.mark.parametrize("seed,level", [(0, 0.95), (3, 0.9), (11, 0.5)])
def test_bootstrap_ci_is_numpys_quantile_of_its_means(seed, level):
    vals = np.random.default_rng(seed).normal(size=9)
    idx = np.random.default_rng(seed).integers(0, 9, size=(1000, 9))
    alpha = (1.0 - level) / 2.0
    want = tuple(np.quantile(vals[idx].mean(axis=1), [alpha, 1.0 - alpha]).tolist())
    assert bootstrap_ci(vals, replicates=1000, seed=seed, level=level) == want


def test_bootstrap_validation():
    with pytest.raises(ValueError):
        bootstrap_ci([0.5], seed=0)
    with pytest.raises(ValueError):
        bootstrap_ci([0.5, 0.6], level=1.0)


# ------------------------------------------------------------ rolling mean

def test_rolling_mean_hand_arithmetic():
    out = rolling_mean([(1, 0.0), (2, 3.0), (3, 6.0)], width=3)
    assert out == [(1, 1.5), (2, 3.0), (3, 4.5)]


def test_rolling_mean_skips_nan():
    out = rolling_mean([(1, 1.0), (2, float("nan")), (3, 5.0)], width=3)
    assert out[0] == (1, 1.0)
    assert out[1] == (2, 3.0)
    assert out[2] == (3, 5.0)


def test_rolling_mean_all_nan_window():
    out = rolling_mean([(1, float("nan"))], width=3)
    assert out[0][0] == 1 and math.isnan(out[0][1])


def test_rolling_mean_width_one_is_identity():
    out = rolling_mean([(4, 2.0), (2, 7.0)], width=1)
    assert out == [(2, 7.0), (4, 2.0)]


def test_rolling_mean_validation():
    with pytest.raises(ValueError):
        rolling_mean([(1, 1.0)], width=2)
    with pytest.raises(ValueError):
        rolling_mean([(1, 1.0)], width=-1)
    assert rolling_mean([], width=3) == []


# ------------------------------------------------------ coefficient ratio

def fit_pair(lam):
    rng = np.random.default_rng(13)
    X = rng.normal(size=(60, 3))
    y = (rng.random(60) < 1.0 / (1.0 + np.exp(-X[:, 0]))).astype(float)
    train = TrainingSet.build(X, y, ("a", "b", "c"))
    return fit_elastic_net(train, lam=lam), fit_logit(train)


def test_coefficient_ratio_basic():
    en, base = fit_pair(lam=0.5)
    entries = coefficient_ratio(en, base)
    assert [feature for feature, _, _ in entries] == ["a", "b", "c"]
    for feature, ratio, selected in entries:
        expected = abs(en.coefficients()[feature]) / abs(base.coefficients()[feature])
        assert ratio == pytest.approx(expected, abs=1e-15)
        assert selected == (ratio >= SELECTION_THRESHOLD)


def test_selection_threshold_boundary():
    class Fake:
        def __init__(self, coefs):
            self._c = coefs

        def coefficients(self):
            return dict(self._c)

    entries = coefficient_ratio(
        Fake({"a": 0.02, "b": 0.0095, "c": 0.0}),
        Fake({"a": 2.0, "b": 1.0, "c": 1.0}),
    )
    by = {feature: (ratio, selected) for feature, ratio, selected in entries}
    assert by["a"][0] == 0.01 and by["a"][1] is True  # exactly at threshold
    assert by["b"][0] == 0.0095 and by["b"][1] is False
    assert by["c"][0] == 0.0 and by["c"][1] is False


def test_coefficient_ratio_zero_denominator():
    class Fake:
        def __init__(self, coefs):
            self._c = coefs

        def coefficients(self):
            return dict(self._c)

    ((feature, ratio, selected),) = coefficient_ratio(Fake({"a": 0.5}), Fake({"a": 0.0}))
    assert feature == "a" and math.isnan(ratio) and selected is None


def test_coefficient_ratio_schema_mismatch():
    class Fake:
        def __init__(self, coefs):
            self._c = coefs

        def coefficients(self):
            return dict(self._c)

    with pytest.raises(SchemaError):
        coefficient_ratio(Fake({"a": 1.0}), Fake({"b": 1.0}))


def test_ratio_series_smoothing():
    series = RatioSeries(rows=[])
    series.add(1, [("f", 0.0, False)])
    series.add(2, [("f", 3.0, True)])
    series.add(3, [("f", 6.0, True)])
    series.add(1, [("g", 1.0, True)])
    rows = series.with_smoothing(width=3)
    assert rows == [
        (1, "f", 0.0, 1.5, False),
        (2, "f", 3.0, 3.0, True),
        (3, "f", 6.0, 4.5, True),
        (1, "g", 1.0, 1.0, True),
    ]
