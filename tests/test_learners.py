import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dyadcast.learners as learners
from dyadcast import (
    FitError,
    FittedModel,
    SchemaError,
    Standardizer,
    TrainingSet,
    TuneGrid,
    ExperimentConfig,
    SyntheticSpec,
    TuningError,
    fit_elastic_net,
    fit_learner,
    fit_logit,
    fit_logitboost,
    fit_neural_net,
    generate_synthetic,
    run_experiment,
    tune,
)
from dyadcast.learners import _best_stump, _cut_table, _sigmoid
from dyadcast.store import CANONICAL_COVARIATES

from helpers import (
    best_stump_oracle, elastic_net_objective, elastic_net_residual_oracle, fit_neural_net_oracle,
    nn_loss_and_grads, tune_oracle,
)


def logistic_sample(n=80, beta=(1.5, -2.0, 0.7), seed=3):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, len(beta)))
    p = 1.0 / (1.0 + np.exp(-(X @ np.asarray(beta))))
    y = (rng.random(n) < p).astype(float)
    return X, y


NAMES3 = ("a", "b", "c")


# ----------------------------------------------------------- TrainingSet

def test_training_set_standardizes():
    X, y = logistic_sample()
    train = TrainingSet.build(X, y, NAMES3)
    assert np.allclose(train.Z.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(train.Z.std(axis=0), 1.0, atol=1e-12)


def test_training_set_drops_constant_columns():
    X = np.column_stack([np.ones(10), np.arange(10.0)])
    y = np.array([0, 1] * 5, dtype=float)
    train = TrainingSet.build(X, y, ("const", "x"))
    assert train.standardizer.dropped == ("const",)
    assert train.standardizer.kept_names() == ("x",)
    assert train.Z.shape == (10, 1)


def test_training_set_validation():
    with pytest.raises(SchemaError):
        TrainingSet.build(np.zeros(4), np.zeros(4), ("a",))  # 1-D X
    with pytest.raises(SchemaError):
        TrainingSet.build(np.zeros((4, 1)), np.zeros(3), ("a",))
    with pytest.raises(FitError, match="labels"):
        TrainingSet.build(np.zeros((3, 1)), np.array([0.0, 1.0, 2.0]), ("a",))
    for bad in (np.nan, -np.inf, 0.5):
        with pytest.raises(FitError, match="labels"):
            TrainingSet.build(np.zeros((3, 1)), np.array([1.0, bad, 0.0]), ("a",))
    with pytest.raises(FitError, match="non-finite"):
        TrainingSet.build(np.array([[np.inf], [0.0]]), np.array([0.0, 1.0]), ("a",))


def test_training_set_subset_shares_standardizer():
    X, y = logistic_sample()
    train = TrainingSet.build(X, y, NAMES3)
    sub = train.subset(np.arange(10))
    assert sub.standardizer is train.standardizer
    assert np.array_equal(sub.Z, train.Z[:10])


def test_standardizer_schema_mismatch():
    X, y = logistic_sample()
    train = TrainingSet.build(X, y, NAMES3)
    with pytest.raises(SchemaError):
        train.standardizer.transform(X, ("a", "c", "b"))


# ----------------------------------------------------------------- logit

def test_logit_intercept_only_analytic():
    train = TrainingSet.build(np.zeros((4, 0)), np.array([1.0, 0, 0, 0]), ())
    model = fit_logit(train)
    assert model.params["intercept"] == pytest.approx(np.log(1.0 / 3.0), abs=1e-6)
    assert model.params["coef"].shape == (0,)


def test_logit_symmetric_data_gives_zero():
    train = TrainingSet.build(
        np.array([[0.0], [0.0], [1.0], [1.0]]), np.array([0.0, 1, 0, 1]), ("x",)
    )
    model = fit_logit(train)
    assert abs(model.params["intercept"]) < 1e-10
    assert abs(model.params["coef"][0]) < 1e-10


def test_logit_single_class_rejected():
    train = TrainingSet.build(np.arange(4.0)[:, None], np.ones(4), ("x",))
    with pytest.raises(FitError):
        fit_logit(train)


def test_logit_separation_capped():
    x = np.linspace(-1, 1, 12)
    train = TrainingSet.build(x[:, None], (x > 0).astype(float), ("x",))
    model = fit_logit(train)
    assert model.capped == 1
    assert abs(model.params["coef"][0]) <= 30.0


def test_logit_matches_grid_oracle():
    rng = np.random.default_rng(21)
    x = rng.normal(size=20)
    x = (x - x.mean()) / x.std()
    y = (rng.random(20) < _sigmoid(0.4 + 1.2 * x)).astype(float)
    model = fit_logit(TrainingSet.build(x[:, None], y, ("x",)))

    def grid_argmax(c0, c1, half, steps=101):
        b0s = np.linspace(c0 - half, c0 + half, steps)
        b1s = np.linspace(c1 - half, c1 + half, steps)
        eta = b0s[:, None, None] + b1s[None, :, None] * x[None, None, :]
        ll = np.sum(y * eta - np.logaddexp(0.0, eta), axis=2)
        k = np.unravel_index(np.argmax(ll), ll.shape)
        return b0s[k[0]], b1s[k[1]]

    c0, c1, half = 0.0, 0.0, 6.0
    for _ in range(3):
        c0, c1 = grid_argmax(c0, c1, half)
        half *= 0.024
    assert model.params["intercept"] == pytest.approx(c0, abs=1e-3)
    assert model.params["coef"][0] == pytest.approx(c1, abs=1e-3)


# ----------------------------------------------------------- elastic net

def test_elastic_net_lam_zero_matches_logit():
    X, y = logistic_sample(seed=9)
    train = TrainingSet.build(X, y, NAMES3)
    ml = fit_logit(train)
    me = fit_elastic_net(train, lam=0.0)
    assert np.max(np.abs(ml.params["coef"] - me.params["coef"])) < 1e-4
    assert abs(ml.params["intercept"] - me.params["intercept"]) < 1e-4


def test_elastic_net_large_lam_zeroes_slopes():
    X, y = logistic_sample(seed=9)
    model = fit_elastic_net(TrainingSet.build(X, y, NAMES3), lam=1e6)
    assert np.array_equal(model.params["coef"], np.zeros(3))


def test_elastic_net_matches_1d_objective_oracle():
    # symmetric data pins the intercept at zero, leaving a 1-D problem
    x = np.array([-1.0, -1.0, 1.0, 1.0])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    lam = 0.3
    model = fit_elastic_net(TrainingSet.build(x[:, None], y, ("x",)), lam=lam)
    betas = np.linspace(-5, 5, 2000001)
    margins = np.outer(2 * y - 1, betas) * x[:, None]
    obj = np.sum(np.logaddexp(0.0, -margins), axis=0) + lam * (np.abs(betas) + betas**2)
    oracle = betas[np.argmin(obj)]
    assert abs(model.params["intercept"]) < 1e-6
    assert model.params["coef"][0] == pytest.approx(oracle, abs=1e-3)


def test_elastic_net_path_monotone():
    x = np.linspace(-2, 2, 30)
    rng = np.random.default_rng(4)
    y = (rng.random(30) < _sigmoid(1.5 * x)).astype(float)
    train = TrainingSet.build(x[:, None], y, ("x",))
    mags = [
        abs(fit_elastic_net(train, lam=lam).params["coef"][0])
        for lam in (0.01, 0.1, 1.0, 10.0, 100.0)
    ]
    assert all(a >= b - 1e-10 for a, b in zip(mags, mags[1:]))
    assert mags[-1] == 0.0


def test_elastic_net_raw_scale_coefficients():
    rng = np.random.default_rng(8)
    X = rng.normal(loc=5.0, scale=3.0, size=(50, 2))
    y = (rng.random(50) < _sigmoid((X[:, 0] - 5.0))).astype(float)
    names = ("u", "v")
    model = fit_elastic_net(TrainingSet.build(X, y, names), lam=0.05)
    via_raw = _sigmoid(model.params["raw_intercept"] + X @ model.params["raw_coef"])
    assert np.allclose(model.predict_proba(X, names), via_raw, atol=1e-10)


@pytest.mark.parametrize("seed", [9, 10])
@pytest.mark.parametrize("lam", [0.0, 0.01, 0.3, 3.0])
def test_elastic_net_matches_residual_oracle_well_conditioned(seed, lam):
    X, y = logistic_sample(n=200, seed=seed)
    train = TrainingSet.build(X, y, NAMES3)
    model = fit_elastic_net(train, lam=lam)
    b0, b, converged, n_outer, capped_inner = elastic_net_residual_oracle(train.Z, train.y, lam)
    assert model.converged and converged
    assert model.n_iter == n_outer
    assert model.capped == capped_inner == 0
    assert np.max(np.abs(model.params["coef"] - b)) < 1e-10
    assert abs(model.params["intercept"] - b0) < 1e-10


def near_collinear_sample(seed):
    # two columns are noisy linear copies of the other two, so cyclic
    # coordinate descent crawls and inner loops stop at the sweep cap
    rng = np.random.default_rng(seed)
    base = rng.normal(size=(60, 2))
    X = np.column_stack([base, base @ rng.normal(size=(2, 2)) + 1e-2 * rng.normal(size=(60, 2))])
    y = (rng.random(60) < _sigmoid(base[:, 0] - base[:, 1])).astype(float)
    return TrainingSet.build(X, y, ("a", "b", "c", "d"))


@pytest.mark.parametrize("seed", [0, 3])
def test_elastic_net_matches_residual_oracle_near_collinear(seed):
    # where inner loops stop at the sweep cap the two solvers need not
    # agree bit for bit, only on the optimum
    train = near_collinear_sample(seed)
    lam = 0.01
    model = fit_elastic_net(train, lam=lam)
    b0, b, _, _, capped_inner = elastic_net_residual_oracle(train.Z, train.y, lam)
    assert capped_inner > 0
    assert model.capped > 0
    ours = elastic_net_objective(train.Z, train.y, lam, model.params["intercept"], model.params["coef"])
    oracle = elastic_net_objective(train.Z, train.y, lam, b0, b)
    assert abs(ours - oracle) <= 1e-9 * abs(oracle)


@pytest.mark.parametrize("seed", [0, 3])
def test_elastic_net_reports_capped_inner_loops(seed):
    model = fit_elastic_net(near_collinear_sample(seed), lam=0.001)
    assert 0 < model.capped <= model.n_iter


def test_elastic_net_negative_lam_rejected():
    X, y = logistic_sample()
    with pytest.raises(ValueError):
        fit_elastic_net(TrainingSet.build(X, y, NAMES3), lam=-1.0)


@pytest.mark.parametrize("lam", [np.inf, np.nan, 2 * 10**308])
def test_elastic_net_penalty_past_the_largest_float_rejected(lam):
    X, y = logistic_sample()
    with pytest.raises(ValueError, match=f"^lam must be finite, got {lam}$"):
        fit_elastic_net(TrainingSet.build(X, y, NAMES3), lam=lam)


# ------------------------------------------------------------ logitboost

def test_logitboost_zero_rounds_is_base_rate():
    X, y = logistic_sample(seed=5)
    model = fit_logitboost(TrainingSet.build(X, y, NAMES3), rounds=0)
    p = model.predict_proba(X, NAMES3)
    assert np.allclose(p, y.mean(), atol=1e-12)
    assert model.params["stumps"] == []


def test_logitboost_learns_threshold():
    x = np.linspace(-2, 2, 40)
    y = (x > 0.1).astype(float)
    model = fit_logitboost(TrainingSet.build(x[:, None], y, ("x",)), rounds=15)
    acc = np.mean((model.predict_proba(x[:, None], ("x",)) >= 0.5) == y)
    assert acc == 1.0


def test_logitboost_training_loss_non_increasing():
    X, y = logistic_sample(n=60, seed=6)
    train = TrainingSet.build(X, y, NAMES3)
    model = fit_logitboost(train, rounds=30)
    F = np.full(len(y), model.params["f0"])
    losses = [np.sum(np.logaddexp(0.0, F) - y * F)]
    for feat, thr, lo, hi in model.params["stumps"]:
        F = F + (np.full(len(y), lo) if feat < 0 else np.where(train.Z[:, feat] < thr, lo, hi))
        losses.append(np.sum(np.logaddexp(0.0, F) - y * F))
    diffs = np.diff(losses)
    assert np.all(diffs <= 1e-9)


def test_logitboost_binary_xor_is_inexpressible():
    """Sums of single-feature stumps are additive in the two inputs, and an
    additive score cannot order all four XOR corners correctly; accuracy on
    exactly repeated binary corners is pinned at coin-flip level."""
    X = np.array([[0, 0], [0, 1], [1, 0], [1, 1]] * 25, dtype=float)
    y = (X[:, 0] != X[:, 1]).astype(float)
    model = fit_logitboost(TrainingSet.build(X, y, ("u", "v")), rounds=100)
    acc = np.mean((model.predict_proba(X, ("u", "v")) >= 0.5) == y)
    assert acc <= 0.75


def test_logitboost_jittered_xor_learnable():
    rng = np.random.default_rng(12)
    centers = np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]], dtype=float)
    idx = rng.integers(0, 4, size=160)
    X = centers[idx] + rng.normal(0, 0.08, size=(160, 2))
    y = (np.sign(X[:, 0]) == np.sign(X[:, 1])).astype(float)
    model = fit_logitboost(TrainingSet.build(X, y, ("u", "v")), rounds=500)
    acc = np.mean((model.predict_proba(X, ("u", "v")) >= 0.5) == y)
    assert acc >= 0.95


def stump_case(Z, w, z):
    Z = np.asarray(Z, dtype=float).reshape(len(w), -1)
    orders = [np.argsort(Z[:, k], kind="stable") for k in range(Z.shape[1])]
    return Z, np.asarray(w, dtype=float), np.asarray(z, dtype=float), orders


def assert_stump_matches_oracle(Z, w, z, orders):
    got = _best_stump(_cut_table(Z), w, z)
    assert got == best_stump_oracle(Z, w, z, orders)
    assert [type(v) for v in got] == [int, float, float, float]
    return got


def planted_gains(Z, w, z, orders):
    """Every gain the scan evaluates, in scan order."""
    total_w, total_wz = float(w.sum()), float((w * z).sum())
    gains = []
    for feat, order in enumerate(orders):
        zs = Z[order, feat]
        for cut in np.flatnonzero(zs[1:] > zs[:-1]):
            wl, wzl = np.cumsum(w[order])[cut], np.cumsum((w * z)[order])[cut]
            wr, wzr = total_w - wl, total_wz - wzl
            if wl > 0.0 and wr > 0.0:
                gains.append(wzl * wzl / wl + wzr * wzr / wr)
    return np.array(gains)


def test_stump_duplicated_columns_pick_the_first():
    rng = np.random.default_rng(0)
    x = rng.normal(size=40)
    case = stump_case(np.column_stack([np.zeros(40), x, x, x]), np.full(40, 0.25), x > 0.3)
    assert assert_stump_matches_oracle(*case)[0] == 1


def test_stump_constant_columns_degenerate_to_the_mean():
    w, z = [0.1, 0.2, 0.3, 0.4], [1.0, -2.0, 0.5, 3.0]
    case = stump_case(np.column_stack([np.full(4, 2.0), np.full(4, -1.0)]), w, z)
    feat, thr, lo, hi = assert_stump_matches_oracle(*case)
    assert (feat, thr) == (-1, 0.0) and lo == hi == pytest.approx(1.05)
    assert assert_stump_matches_oracle(*stump_case(np.zeros((4, 0)), w, z))[0] == -1
    case = stump_case(np.column_stack([np.full(4, 2.0), [0, 1, 1, 0]]), w, z)
    assert assert_stump_matches_oracle(*case)[0] == 1


def test_stump_threshold_ties_pick_the_lowest():
    """Mirror-image cuts of a two-valued response with equal weights have
    exactly equal gains; the lower threshold wins."""
    case = stump_case([0.0, 1.0, 2.0, 3.0], np.full(4, 0.25), [1.0, -1.0, -1.0, 1.0])
    gains = planted_gains(*case)
    assert gains[0] == gains[2] == gains.max()
    assert assert_stump_matches_oracle(*case)[:2] == (0, 0.5)


def test_stump_gain_chains_within_rounding():
    """A constant response makes every cut's gain total_w * z**2 up to
    rounding, so the gains form a chain a few 1e-15 apart. A later cut that
    beats the best by less than 1e-15 is passed over, so the kept cut is
    not the first maximum."""
    rng = np.random.default_rng(31)
    Z = rng.integers(0, 6, size=(50, 3)).astype(float)
    w = rng.choice([0.1, 0.2, 0.3], size=50)
    case = stump_case(Z, w, np.full(50, np.sqrt(6.0 / w.sum())))
    gains = planted_gains(*case)
    assert 1e-15 < gains.max() - gains.min() < 1e-14 and len(np.unique(gains)) > 2
    kept, best = None, -np.inf
    for k, gain in enumerate(gains):
        if gain > best + 1e-15:
            kept, best = k, gain
    assert kept != np.argmax(gains)
    assert_stump_matches_oracle(*case)


def test_stump_skips_a_last_cut_with_no_weight_on_the_right():
    """The cumulative weight at the last cut rounds to the total, so the
    right side has weight <= 0 and that cut is skipped."""
    case = stump_case([0.0, 1.0, 2.0], [0.5, 0.5, 1e-17], [1.0, -1.0, 5.0])
    _, w, _, _ = case
    assert w[-1] > 0.0 and float(w.sum()) - np.cumsum(w)[-2] <= 0.0
    assert assert_stump_matches_oracle(*case)[:2] == (0, 0.5)


def test_stump_skipped_cut_in_an_earlier_column_keeps_later_winners_in_place():
    """Column 0's last cut has no weight on its right and is skipped, which
    shifts every later cut's place among the kept ones; the winner, in
    column 2, must still map to its own column and threshold."""
    Z = np.column_stack([[0.0, 2.0, 1.0, 3.0], np.full(4, 3.0), [0.0, 0.0, 1.0, 1.0]])
    case = stump_case(Z, [0.5, 0.5, 0.5, 1e-17], [1.0, 1.0, -1.0, 5.0])
    _, w, _, orders = case
    assert w[-1] > 0.0 and float(w.sum()) - np.cumsum(w[orders[0]])[-2] <= 0.0
    assert assert_stump_matches_oracle(*case)[:2] == (2, 0.5)


@st.composite
def stump_problems(draw):
    n = draw(st.integers(1, 24))
    p = draw(st.integers(0, 4))
    levels = draw(st.integers(1, 4))
    cols = [
        draw(st.lists(st.integers(0, levels - 1), min_size=n, max_size=n))
        for _ in range(p)
    ]
    if p >= 2 and draw(st.booleans()):
        cols[-1] = cols[0]
    Z = np.array(cols, dtype=float).T.reshape(n, p)
    if draw(st.booleans()):
        Z = Z + np.array(
            draw(st.lists(st.floats(-1, 1), min_size=n * p, max_size=n * p))
        ).reshape(n, p)
    w_kind = draw(st.sampled_from(["equal", "levels", "free", "tiny-tail"]))
    if w_kind == "equal":
        w = np.full(n, 0.25)
    elif w_kind == "levels":
        w = np.array(draw(st.lists(st.sampled_from([0.0, 0.1, 0.2, 0.3]), min_size=n, max_size=n)))
        w[0] = 0.1
    else:
        w = np.array(draw(st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n)))
        if w_kind == "tiny-tail":
            w[-1] = 1e-17
    z_kind = draw(st.sampled_from(["two-valued", "constant", "free"]))
    if z_kind == "two-valued":
        z = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n)))
    elif z_kind == "constant":
        z = np.full(n, draw(st.sampled_from([1 / 3, 0.1, -2.0])))
    else:
        z = np.array(draw(st.lists(st.floats(-5, 5), min_size=n, max_size=n)))
    return stump_case(Z, w, z)


@settings(max_examples=300)
@given(stump_problems())
def test_stump_matches_sequential_oracle(case):
    assert_stump_matches_oracle(*case)


def search_with_oracle(monkeypatch):
    """Swap the oracle in for every round's stump search: the cut table is
    then the oracle's inputs, Z and its columns' stable orders."""
    monkeypatch.setattr(learners, "_cut_table", lambda Z: (
        Z, [np.argsort(Z[:, k], kind="stable") for k in range(Z.shape[1])]
    ))
    monkeypatch.setattr(learners, "_best_stump", lambda cuts, w, z: best_stump_oracle(
        cuts[0], w, z, cuts[1]
    ))


def test_stump_search_on_every_round_matches_oracle(monkeypatch):
    """A fit whose every stump comes from the oracle is identical to the
    real fit, on a design with duplicated and rounded columns."""
    rng = np.random.default_rng(21)
    x = rng.normal(size=(300, 3))
    X = np.column_stack([x, x[:, 0], np.round(x[:, 1], 1), np.round(x[:, 2])])
    y = (rng.random(300) < _sigmoid(x[:, 0] - np.round(x[:, 1], 1))).astype(float)
    train = TrainingSet.build(X, y, tuple("abcdef"))
    real = fit_logitboost(train, rounds=60)
    search_with_oracle(monkeypatch)
    pinned = fit_logitboost(train, rounds=60)
    assert len(real.params["stumps"]) == 60
    assert real.params == pinned.params
    assert real.objective == pinned.objective


def test_stump_search_matches_oracle_on_a_covariate_world(monkeypatch):
    """Every logitboost cell of a small world with all nine covariates,
    time-varying, fits the same model with the oracle's stumps."""
    panel, table, _ = generate_synthetic(SyntheticSpec(
        n_nodes=8, periods=5, base_rate=0.05, persistence=0.3,
        covariate_names=CANONICAL_COVARIATES,
        covariate_effects={
            "contiguity": 1.0, "capital-distance": -0.7,
            "joint-democracy": -0.5, "trade-dependence": 0.4,
        },
        time_varying_covariates=True, seed=0,
    ))
    config = ExperimentConfig(
        first_period=3, last_period=5, lags=(1,), spec_classes=("covariates-only",),
        learners=("logitboost",), learner_params={"logitboost": {"rounds": 50}},
        bootstrap_replicates=10,
    )
    real = run_experiment(config, panel, table).models
    search_with_oracle(monkeypatch)
    pinned = run_experiment(config, panel, table).models
    assert len(real) == 3 and real.keys() == pinned.keys()
    for key, model in real.items():
        assert model.params == pinned[key].params
        assert model.objective == pinned[key].objective


def test_one_fit_builds_its_cut_table_once(monkeypatch):
    X, y = logistic_sample(n=80, seed=4)
    train = TrainingSet.build(X, y, NAMES3)
    builds = []
    real = learners._cut_table
    monkeypatch.setattr(learners, "_cut_table", lambda Z: builds.append(Z) or real(Z))
    model = fit_logitboost(train, rounds=50)
    assert len(model.params["stumps"]) == 50
    assert len(builds) == 1 and builds[0] is train.Z


# ------------------------------------------------------------ neural net

def test_nn_gradients_match_finite_differences():
    rng = np.random.default_rng(5)
    Z = rng.normal(size=(7, 3))
    y = np.array([1, 0, 1, 1, 0, 0, 1], dtype=float)
    W1 = rng.normal(size=(3, 4))
    b1 = rng.normal(size=4)
    w2 = rng.normal(size=4)
    b2 = 0.3
    decay = 0.05
    _, gW1, gb1, gw2, gb2 = nn_loss_and_grads(Z, y, W1, b1, w2, b2, decay)

    def loss():
        return nn_loss_and_grads(Z, y, W1, b1, w2, b2, decay)[0]

    for arr, grad in ((W1, gW1), (b1, gb1), (w2, gw2)):
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            k = it.multi_index
            h = 1e-5 * max(1.0, abs(arr[k]))
            orig = arr[k]
            arr[k] = orig + h
            up = loss()
            arr[k] = orig - h
            dn = loss()
            arr[k] = orig
            fd = (up - dn) / (2 * h)
            assert abs(fd - grad[k]) <= 1e-5 * max(1.0, abs(grad[k]))
    h = 1e-5
    fd = (nn_loss_and_grads(Z, y, W1, b1, w2, b2 + h, decay)[0]
          - nn_loss_and_grads(Z, y, W1, b1, w2, b2 - h, decay)[0]) / (2 * h)
    assert abs(fd - gb2) <= 1e-5 * max(1.0, abs(gb2))


def test_nn_large_decay_collapses_to_base_rate():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(60, 3))
    y = (rng.random(60) < 0.3).astype(float)
    model = fit_neural_net(TrainingSet.build(X, y, NAMES3), hidden=3, decay=1e4, seed=1)
    p = model.predict_proba(X, NAMES3)
    assert p.max() - p.min() < 1e-5
    assert abs(p.mean() - y.mean()) < 0.05


def test_nn_learns_separable_data():
    x = np.linspace(-2, 2, 40)
    y = (x > 0.3).astype(float)
    model = fit_neural_net(
        TrainingSet.build(x[:, None], y, ("x",)), hidden=2, decay=0.001, seed=2
    )
    acc = np.mean((model.predict_proba(x[:, None], ("x",)) >= 0.5) == y)
    assert acc == 1.0


def test_nn_hidden_validation():
    X, y = logistic_sample()
    with pytest.raises(ValueError):
        fit_neural_net(TrainingSet.build(X, y, NAMES3), hidden=0, decay=0.1)


def same_values(a, b) -> bool:
    """a and b equal bit for bit: dict keys and types, arrays, floats."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_values(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and np.array_equal(a, b)
    return type(a) is type(b) and a == b


def test_nn_matches_loop_oracle_on_random_designs():
    for case in range(40):
        rng = np.random.default_rng(2000 + case)
        n, p = int(rng.integers(6, 40)), int(rng.integers(1, 5))
        X = rng.normal(size=(n, p))
        y = np.zeros(n)
        y[rng.permutation(n)[: int(rng.integers(1, n))]] = 1.0
        train = TrainingSet.build(X, y, [f"x{k}" for k in range(p)])
        kw = dict(
            hidden=int(rng.integers(1, 5)),
            decay=float(rng.choice([0.0, 0.01, 1.0])),
            seed=case,
            max_iter=int(rng.choice([0, 1, 50, 300])),
            restarts=int(rng.integers(1, 4)),
            grad_tol=float(rng.choice([0.0, 1e-5, 1e-2])),
        )
        fit, ref = fit_neural_net(train, **kw), fit_neural_net_oracle(train, **kw)
        assert same_values(fit.params, ref.params), (case, kw)
        assert same_values(fit.diagnostics, ref.diagnostics), (case, kw)
        report = ("stop", "n_iter", "objective", "capped")
        assert [getattr(fit, k) for k in report] == [getattr(ref, k) for k in report], (case, kw)


def test_nn_evaluates_each_point_once(monkeypatch):
    """Each start is evaluated once, by the non-finite rescue loop, and
    descend reuses that evaluation: as many nn_loss calls as the loop
    oracle's one per start and per trial, never twice at one point."""
    X, y = logistic_sample()
    train = TrainingSet.build(X, y, NAMES3)
    kw = dict(hidden=2, decay=0.1, restarts=3, max_iter=60, seed=4)
    real, points = learners.nn_loss, []

    def counted(Z, y, W1, b1, w2, b2, decay):
        points.append(b"".join(np.asarray(a, dtype=float).tobytes() for a in (W1, b1, w2, b2)))
        return real(Z, y, W1, b1, w2, b2, decay)

    monkeypatch.setattr(learners, "nn_loss", counted)
    fit_neural_net(train, **kw)
    fitted = list(points)
    points.clear()
    fit_neural_net_oracle(train, **kw)  # nn_loss_and_grads calls nn_loss
    assert len(fitted) == len(points) > kw["restarts"]
    assert len(set(fitted)) == len(fitted)


def test_nn_restarts_validation():
    X, y = logistic_sample()
    with pytest.raises(ValueError, match="^restarts must be >= 1, got 0"):
        fit_neural_net(TrainingSet.build(X, y, NAMES3), hidden=2, decay=0.1, restarts=0)


# --------------------------------------------------- shared model behavior

ALL_PARAMS = [
    ("logit", {}),
    ("elastic-net", {"lam": 0.1}),
    ("logitboost", {"rounds": 20}),
    ("neural-net", {"hidden": 3, "decay": 0.1}),
]


@pytest.mark.parametrize("kind,params", ALL_PARAMS)
def test_affine_rescaling_leaves_scores_alone(kind, params):
    X, y = logistic_sample(seed=3)
    rng = np.random.default_rng(30)
    X_test = rng.normal(size=(40, 3))
    scale = np.array([1000.0, 0.001, 37.5])
    shift = np.array([-5.0, 2.0, 100.0])
    m1 = fit_learner(kind, TrainingSet.build(X, y, NAMES3), params=params, seed=7)
    m2 = fit_learner(kind, TrainingSet.build(X * scale + shift, y, NAMES3), params=params, seed=7)
    s1 = m1.predict_proba(X_test, NAMES3)
    s2 = m2.predict_proba(X_test * scale + shift, NAMES3)
    assert np.max(np.abs(s1 - s2)) < 1e-8


@pytest.mark.parametrize("kind,params", ALL_PARAMS)
def test_fit_deterministic(kind, params):
    X, y = logistic_sample(seed=14)
    t1 = TrainingSet.build(X, y, NAMES3)
    t2 = TrainingSet.build(X, y, NAMES3)
    m1 = fit_learner(kind, t1, params=params, seed=5)
    m2 = fit_learner(kind, t2, params=params, seed=5)
    assert np.array_equal(m1.predict_proba(X, NAMES3), m2.predict_proba(X, NAMES3))


@pytest.mark.parametrize("kind,params", ALL_PARAMS)
def test_model_json_round_trip(kind, params):
    X, y = logistic_sample(seed=15)
    model = fit_learner(kind, TrainingSet.build(X, y, NAMES3), params=params, seed=5)
    back = FittedModel.from_json(json.loads(json.dumps(model.to_json())))
    assert back.kind == model.kind
    assert np.array_equal(back.predict_proba(X, NAMES3), model.predict_proba(X, NAMES3))


@pytest.mark.parametrize("kind,params", ALL_PARAMS)
def test_scores_are_probabilities(kind, params):
    X, y = logistic_sample(seed=16)
    model = fit_learner(kind, TrainingSet.build(X, y, NAMES3), params=params, seed=5)
    p = model.predict_proba(X, NAMES3)
    assert np.all((p >= 0.0) & (p <= 1.0))


def test_predict_schema_mismatch():
    X, y = logistic_sample()
    model = fit_logit(TrainingSet.build(X, y, NAMES3))
    with pytest.raises(SchemaError):
        model.predict_proba(X, ("a", "b", "wrong"))


def test_predict_on_constant_model():
    X, y = logistic_sample()
    model = fit_logitboost(TrainingSet.build(X, y, NAMES3), rounds=0)
    assert np.allclose(model.predict_proba(X, NAMES3), y.mean(), atol=1e-12)


def test_coefficients_only_for_linear_models():
    X, y = logistic_sample()
    train = TrainingSet.build(X, y, NAMES3)
    assert set(fit_logit(train).coefficients()) == set(NAMES3)
    with pytest.raises(ValueError):
        fit_logitboost(train, rounds=1).coefficients()


# ------------------------------------------------------------ fit report

REPORT_FITS = {
    "logit": dict(),
    "elastic-net": dict(lam=0.05),
    "logitboost": dict(rounds=7),
    "neural-net": dict(hidden=2, decay=0.1, max_iter=200, restarts=2),
}


def penalty(model) -> float:
    p = model.params
    if model.kind == "elastic-net":
        return p["lam"] * float(np.sum(np.abs(p["coef"])) + np.sum(p["coef"] ** 2))
    if model.kind == "neural-net":
        return p["decay"] * float(np.sum(p["W1"] ** 2) + np.sum(p["w2"] ** 2))
    return 0.0


@pytest.mark.parametrize("kind", sorted(REPORT_FITS))
def test_every_learner_reports_its_penalized_training_loss(kind):
    X, y = logistic_sample()
    train = TrainingSet.build(X, y, NAMES3)
    model = learners.FIT_FUNCTIONS[kind](train, **REPORT_FITS[kind])
    eta = model.decision(train.Z)
    loss = float(np.sum(np.logaddexp(0.0, eta) - train.y * eta)) + penalty(model)
    assert model.objective == pytest.approx(loss, rel=1e-12)
    assert model.stop in ("tolerance", "step", "cap") and model.n_iter > 0


def test_learner_stops_as_reported():
    X, y = logistic_sample()
    train = TrainingSet.build(X, y, NAMES3)
    logit = fit_logit(train)
    assert (logit.stop, logit.capped, logit.converged) == ("tolerance", 0, True)
    enet = fit_elastic_net(train, lam=0.05)
    assert (enet.stop, enet.capped, enet.converged) == ("tolerance", 0, True)
    boost = fit_logitboost(train, rounds=7)
    assert (boost.stop, boost.n_iter, boost.params["rounds"]) == ("cap", 7, 7)
    assert not boost.converged and fit_logitboost(train, rounds=0).n_iter == 0


def test_neural_net_capped_at_max_iter_reports_cap():
    X, y = logistic_sample()
    train = TrainingSet.build(X, y, NAMES3)
    model = fit_neural_net(train, hidden=2, decay=0.1, max_iter=5, restarts=1, grad_tol=0.0)
    assert (model.stop, model.n_iter, model.converged) == ("cap", 5, False)
    assert model.diagnostics == {"failed_starts": 0, "seed": 0}


def test_unknown_learner_rejected():
    X, y = logistic_sample()
    with pytest.raises(ValueError):
        fit_learner("forest", TrainingSet.build(X, y, NAMES3))


# ------------------------------------------------------------------ tune

def assert_tunes_agree(*args, **kwargs):
    """tune and tune_oracle give the same TuneResult, compared through its
    repr (exact float digits, value types, dict and table order), or raise
    the same exception type with the same message. Overflow in a fit on a
    huge penalty is left silent, as numpy leaves it outside the suite."""
    outcomes = []
    for search in (tune, tune_oracle):
        try:
            with np.errstate(all="ignore"):
                outcomes.append(repr(search(*args, **kwargs)))
        except (TuningError, FitError, ValueError) as exc:
            outcomes.append((type(exc), str(exc)))
    assert outcomes[0] == outcomes[1]
    return outcomes[0]


def test_tune_single_point_grid_skips_search():
    X, y = logistic_sample()
    train = TrainingSet.build(X, y, NAMES3)
    result = tune("elastic-net", train, TuneGrid(enet_lambda=(0.5,)))
    assert result.params == {"lam": 0.5}
    assert result.score is None
    assert result.table == [] and result.extensions == 0


def test_tune_logit_has_nothing_to_tune():
    X, y = logistic_sample()
    result = tune("logit", TrainingSet.build(X, y, NAMES3))
    assert result.params == {}


def test_tune_folds_validation():
    X, y = logistic_sample()
    with pytest.raises(ValueError):
        tune("elastic-net", TrainingSet.build(X, y, NAMES3), folds=1)


def test_tune_needs_two_of_each_class():
    X = np.arange(8.0)[:, None]
    y = np.array([1.0] + [0.0] * 7)
    with pytest.raises(TuningError):
        tune("elastic-net", TrainingSet.build(X, y, ("x",)))


def test_tune_folds_shrink_to_class_counts():
    X = np.arange(20.0)[:, None]
    y = np.zeros(20)
    y[[3, 9, 15]] = 1.0  # three positives
    result = tune(
        "elastic-net", TrainingSet.build(X, y, ("x",)),
        TuneGrid(enet_lambda=(0.01, 1.0)), folds=5,
    )
    assert result.folds_used == 3


def test_tune_boundary_extension_metadata():
    X, y = logistic_sample(seed=3)
    train = TrainingSet.build(X, y, NAMES3)
    result = tune(
        "elastic-net", train, TuneGrid(enet_lambda=(0.01, 100.0, 200.0)),
        folds=3, seed=0,
    )
    # useful signal lives below the smallest grid value, so the search
    # walks the low boundary outward up to the cap and reports it
    assert result.extensions == learners.TUNE_MAX_EXTENSIONS == 3
    assert result.at_boundary
    assert result.params["lam"] <= 0.01
    assert all(isinstance(entry, tuple) and len(entry) == 2 for entry in result.table)
    assert_tunes_agree("elastic-net", train, TuneGrid(enet_lambda=(0.01, 100.0, 200.0)), 3, 0)


def test_tune_grid_with_zero_does_not_extend():
    """A zero penalty is a valid grid point, but no geometric step leads
    past it or away from it."""
    X, y = logistic_sample(seed=3)
    result = tune(
        "elastic-net", TrainingSet.build(X, y, NAMES3), TuneGrid(enet_lambda=(0.0, 0.1)),
        folds=3, seed=0,
    )
    assert result.extensions == 0 and result.at_boundary


@pytest.mark.parametrize("grid", [(0.5, 1e200), (1.0, 1e308)])
def test_tune_does_not_extend_a_grid_past_the_largest_float(grid):
    """The top of the grid wins, and the next point of its geometric
    spacing (infinite, or a whole number past the largest float) is no
    penalty: the axis stops growing and the winner stays on its boundary."""
    y = np.tile([1.0, 0.0], 10)
    assign = learners.cv_folds(y, 2, 0)
    # x tracks y in fold 0 and opposes it in fold 1, so every model fitted
    # on one fold ranks the other backwards and only the null model is safe
    x = np.where(assign == 0, 1.0, -1.0) * (2.0 * y - 1.0) + np.linspace(0, 0.1, 20)
    train = TrainingSet.build(x[:, None], y, ("x",))
    result = tune("elastic-net", train, TuneGrid(enet_lambda=grid), folds=2, seed=0)
    assert result.params == {"lam": grid[1]}
    assert result.extensions == 0 and result.at_boundary
    assert [entry[0]["lam"] for entry in result.table] == list(grid)
    model = fit_learner("elastic-net", train, seed=0, grid=TuneGrid(enet_lambda=grid), folds=2)
    assert model.params["lam"] == grid[1] and model.diagnostics["tuning"]["at_boundary"]


def test_tune_grid_repeats_are_one_point():
    """Each axis is searched sorted and without repeats, so (0.1, 0.1) is
    the single point 0.1: no CV fit, and no extension spent on dropping
    the repeat."""
    grid = TuneGrid(enet_lambda=(0.1, 0.1), nn_hidden=(2, 1, 2), nn_decay=(1.0, 0.5, 1.0))
    assert grid.for_learner("elastic-net") == {"lam": [0.1]}
    assert grid.for_learner("neural-net") == {"hidden": [1, 2], "decay": [0.5, 1.0]}
    X, y = logistic_sample()
    result = tune("elastic-net", TrainingSet.build(X, y, NAMES3), grid, folds=2)
    assert (result.params, result.score, result.table, result.extensions) == (
        {"lam": 0.1}, None, [], 0
    )


def test_tune_neural_net_with_an_overflowing_decay_warns_nothing():
    """A 1e200 decay overflows the penalty at the descent's trial points.
    Such a point is a non-finite loss that the line search rejects; no
    RuntimeWarning escapes tune."""
    X, y = logistic_sample(n=40, seed=5)
    train = TrainingSet.build(X, y, NAMES3)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = tune(
            "neural-net", train, TuneGrid(nn_hidden=(2,), nn_decay=(0.1, 1e200)), folds=2
        )
    assert result.params == {"decay": 0.1, "hidden": 2}


def test_tune_selects_useful_rounds():
    x = np.linspace(-2, 2, 60)
    rng = np.random.default_rng(17)
    y = (rng.random(60) < _sigmoid(2.0 * x)).astype(float)
    train = TrainingSet.build(x[:, None], y, ("x",))
    result = tune("logitboost", train, TuneGrid(boost_rounds=(1, 10, 40)), folds=3)
    assert result.params["rounds"] in {1, 10, 40} or result.extensions > 0
    assert result.folds_used == 3


def test_fit_learner_tunes_when_params_absent():
    X, y = logistic_sample(n=60, seed=19)
    train = TrainingSet.build(X, y, NAMES3)
    model = fit_learner(
        "elastic-net", train, grid=TuneGrid(enet_lambda=(0.01, 0.1)), folds=2, seed=0
    )
    assert "tuning" in model.diagnostics
    assert model.params["lam"] in {0.01, 0.1} or model.diagnostics["tuning"]["extensions"] > 0


def test_cv_fits_get_the_cells_other_keywords(monkeypatch):
    """A pinned axis is searched at its one value, and the keywords that
    are no axis reach every cross-validation fit, not only the final one."""
    X, y = logistic_sample(n=60, seed=19)
    seen = []

    def recording(kind, train, params=None, **kwargs):
        seen.append(dict(params))
        return fit_learner(kind, train, params, **kwargs)

    monkeypatch.setattr(learners, "fit_learner", recording)
    model = fit_learner(
        "neural-net", TrainingSet.build(X, y, NAMES3), params={"hidden": 2, "max_iter": 5},
        folds=2, grid=TuneGrid(nn_hidden=(4, 8), nn_decay=(0.1, 1.0)),
    )
    assert seen and all(p["hidden"] == 2 and p.get("max_iter") == 5 for p in seen)
    assert model.diagnostics["tuning"]["params"] == {"decay": model.params["decay"], "hidden": 2}


@pytest.mark.parametrize("kind,params", ALL_PARAMS[1:])
def test_one_tune_call_per_tuned_fit(kind, params, monkeypatch):
    """A tuned fit calls tune once, whose cross-validation fits are flat
    module-level fit_learner calls, one per fold and scored candidate;
    a fit with every axis pinned calls neither."""
    X, y = logistic_sample(n=60, seed=19)
    train = TrainingSet.build(X, y, NAMES3)
    grid = TuneGrid(enet_lambda=(0.01, 0.1), nn_hidden=(2, 3), nn_decay=(0.1,),
                    boost_rounds=(2, 4))
    tunes, fits = [], []

    def counting_tune(*args, **kwargs):
        tunes.append(tune(*args, **kwargs))
        return tunes[-1]

    def counting_fit(*args, **kwargs):
        fits.append(args[0])
        return fit_learner(*args, **kwargs)

    monkeypatch.setattr(learners, "tune", counting_tune)
    monkeypatch.setattr(learners, "fit_learner", counting_fit)
    model = fit_learner(kind, train, grid=grid, folds=3, seed=0)
    (result,) = tunes
    assert len(fits) == result.folds_used * len(result.table) > 0
    assert model.diagnostics["tuning"]["params"] == result.params

    tunes.clear()
    fits.clear()
    model = fit_learner(kind, train, params=params, grid=grid, folds=3, seed=0)
    assert tunes == [] and fits == [] and "tuning" not in model.diagnostics


TUNE_AXIS_VALUES = {
    "enet_lambda": (0.0, 0.001, 0.1, 1.0, 3.0, 10.0, 1e200, 1e308),
    "boost_rounds": (0, 1, 2, 3, 5, 8),
    "nn_hidden": (1, 2, 3),
    "nn_decay": (0.0, 0.01, 0.5, 1.0, 2.0, 1e200, 1e308),
}
TUNE_AXES = {
    "elastic-net": {"lam": "enet_lambda"},
    "logitboost": {"rounds": "boost_rounds"},
    "neural-net": {"decay": "nn_decay", "hidden": "nn_hidden"},
}


@st.composite
def tune_cases(draw):
    """(kind, train, grid, folds, seed, params): a small logistic sample,
    grids holding zeros, whole numbers and points near the largest float,
    and some axes pinned through params."""
    kind = draw(st.sampled_from(sorted(TUNE_AXES)))
    beta = draw(st.lists(st.sampled_from((-2.0, -0.5, 0.0, 1.0, 2.5)), min_size=1, max_size=3))
    X, y = logistic_sample(draw(st.integers(6, 40)), tuple(beta), draw(st.integers(0, 999)))
    train = TrainingSet.build(X, y, NAMES3[: len(beta)])
    fields, params = {}, {}
    for axis, name in TUNE_AXES[kind].items():
        values = st.sampled_from(TUNE_AXIS_VALUES[name])
        size = draw(st.sampled_from((1, 2, 2, 3, 3, 4)))
        fields[name] = tuple(draw(st.lists(values, min_size=size, max_size=size)))
        if draw(st.integers(0, 3)) == 0:
            params[axis] = draw(values)
    if kind == "neural-net":
        params.update(restarts=1, max_iter=draw(st.integers(1, 20)))
    grid = TuneGrid(**fields)
    return kind, train, grid, draw(st.integers(2, 5)), draw(st.integers(0, 99)), params


@settings(max_examples=200)
@given(tune_cases())
def test_tune_matches_oracle(case):
    assert_tunes_agree(*case)


def test_tune_extends_decay_before_hidden(monkeypatch):
    """With two-point axes every winner sits on an end of both, and the
    first axis in name order, decay, is the one extended."""
    X, y = logistic_sample(n=40, seed=5)
    train = TrainingSet.build(X, y, NAMES3)
    grid = TuneGrid(nn_hidden=(1, 2), nn_decay=(0.1, 1.0))
    keys = []

    def recording(kind, train, params=None, **kwargs):
        keys.append((params["decay"], params["hidden"]))
        return fit_learner(kind, train, params, **kwargs)

    monkeypatch.setattr(learners, "fit_learner", recording)
    params = {"restarts": 1, "max_iter": 10}
    assert_tunes_agree("neural-net", train, grid, 2, 0, params)
    new = [key for key in keys if key not in {(0.1, 1), (0.1, 2), (1.0, 1), (1.0, 2)}]
    assert new and new[0][0] not in (0.1, 1.0) and new[0][1] in (1, 2)


def test_tune_with_every_candidate_failing(monkeypatch):
    def failing(*args, **kwargs):
        raise FitError("no fit")

    monkeypatch.setattr(learners, "fit_learner", failing)
    X, y = logistic_sample()
    outcome = assert_tunes_agree(
        "logitboost", TrainingSet.build(X, y, NAMES3), TuneGrid(boost_rounds=(1, 2)), 3, 0
    )
    assert outcome == (TuningError, "no logitboost candidate could be fit on any fold")


@pytest.mark.parametrize("kind,grid,params", [
    ("logit", None, None),
    ("elastic-net", TuneGrid(enet_lambda=(0.5,)), None),
    ("neural-net", TuneGrid(nn_decay=(0.1,)), {"hidden": 2}),
])
def test_tune_early_returns_match_oracle(kind, grid, params):
    X, y = logistic_sample()
    assert_tunes_agree(kind, TrainingSet.build(X, y, NAMES3), grid, 5, 0, params)


# ------------------------------------------------------------ serializer

def test_standardizer_json_round_trip():
    X, y = logistic_sample()
    std = Standardizer.fit(X, NAMES3)
    back = Standardizer.from_json(json.loads(json.dumps(std.to_json())))
    assert back.input_names == std.input_names
    assert np.array_equal(back.transform(X, NAMES3), std.transform(X, NAMES3))
