"""End-to-end acceptance checks.

Each test prints exactly one line, ``CRITERION k: PASS/FAIL - detail``,
and then asserts the same condition, so the verdicts are visible in any
pytest run. Numeric tolerances are pinned in the assertions.
"""

import math
import time
from itertools import combinations

import numpy as np
import pytest

from dyadcast import (
    BundleCache,
    EventPanel,
    ExperimentConfig,
    FeatureConfig,
    LatentConfig,
    RatioSeries,
    SyntheticSpec,
    TrainingSet,
    fit_elastic_net,
    fit_latent_space,
    fit_logit,
    fit_logitboost,
    fit_mmsbm,
    generate_synthetic,
    pr_curve,
    roc_curve,
    rolling_mean,
    run_experiment,
    walktrap,
    write_outputs,
)
from dyadcast.evaluation import coefficient_ratio
from dyadcast.learners import _sigmoid

from helpers import (
    average_precision_oracle,
    best_modularity_partition,
    expected_ap_random,
    make_net,
    mann_whitney_auc,
    nn_loss_and_grads,
    spearman,
)


def _report(capsys, k, ok, detail):
    ok = bool(ok)
    line = f"CRITERION {k}: {'PASS' if ok else 'FAIL'} - {detail}"
    with capsys.disabled():
        print(line)
    assert ok, line


def _float_eq(a, b):
    if math.isnan(a) and math.isnan(b):
        return True
    return a == b


# --------------------------------------------------------------------- 1

def test_criterion_1_metric_oracles(capsys):
    t0 = time.time()
    rng = np.random.default_rng(77)
    worst_roc = worst_pr = 0.0
    count = 0
    while count < 500:
        n = int(rng.integers(5, 201))
        if rng.random() < 0.5:
            scores = rng.integers(0, 8, size=n) / 8.0  # tie-heavy
        else:
            scores = rng.random(n)
        labels = (rng.random(n) < rng.uniform(0.05, 0.5)).astype(int)
        if labels.sum() in (0, n):
            continue
        count += 1
        worst_roc = max(
            worst_roc, abs(roc_curve(scores, labels) - mann_whitney_auc(scores, labels))
        )
        worst_pr = max(
            worst_pr,
            abs(pr_curve(scores, labels) - average_precision_oracle(scores, labels)),
        )
    roc_example = roc_curve([0.9, 0.8, 0.3, 0.1], [1, 0, 1, 0])
    pr_example = pr_curve([0.9, 0.8, 0.3, 0.1], [1, 0, 1, 0])
    example_ok = roc_example == 0.75 and abs(pr_example - 5.0 / 6.0) < 1e-15
    elapsed = time.time() - t0
    ok = worst_roc <= 1e-12 and worst_pr <= 1e-12 and example_ok and elapsed < 10
    _report(
        capsys, 1, ok,
        f"500 instances: max |AUC-ROC - rank oracle| {worst_roc:.2e}, "
        f"max |AUC-PR - AP oracle| {worst_pr:.2e}; worked example "
        f"{roc_example}/{pr_example:.6f}; {elapsed:.1f}s",
    )


# --------------------------------------------------------------------- 2

def test_criterion_2_random_baseline_law(capsys):
    """Mean AUC-PR under uniform random scores vs its exact expectation.

    AUC-PR is average precision, and with m positives among n distinct
    ranks a random ranking's expected AP is exactly
    (m-1)/(n-1) + (n-m)*H_n/(n(n-1)) (``expected_ap_random``), which
    exceeds the raw positive rate by about (1-pi)(H_n-1)/(n-1), ~8.7e-4
    at n=10,000. Each draw is compared with the exact value for its own
    positive count, and the mean difference over 200 draws must lie
    within 3 Monte Carlo standard errors of zero, so a bias of ~3 SE
    (~5e-4) in pr_curve fails it. The mean excess of the exact value over
    each draw's positive rate is reported alongside.
    """
    t0 = time.time()
    rng = np.random.default_rng(2024)
    n, draws = 10000, 200
    parts = []
    ok = True
    for rate in (0.005, 0.01, 0.05):
        aps, exact, positives = [], [], []
        while len(aps) < draws:
            labels = (rng.random(n) < rate).astype(int)
            m = int(labels.sum())
            if m == 0:
                continue
            aps.append(pr_curve(rng.random(n), labels))
            exact.append(expected_ap_random(n, m))
            positives.append(m)
        aps, exact = np.array(aps), np.array(exact)
        se = aps.std(ddof=1) / math.sqrt(draws)
        z = (aps.mean() - exact.mean()) / se
        excess = float(np.mean(exact - np.array(positives) / n))
        parts.append(
            f"pi={rate}: mean={aps.mean():.6f}, exact={exact.mean():.6f} "
            f"(excess over pi {excess:.2e}), z={z:+.2f}"
        )
        ok = ok and abs(z) <= 3
    elapsed = time.time() - t0
    ok = ok and elapsed < 30
    _report(capsys, 2, ok, "; ".join(parts) + f"; {elapsed:.1f}s")


# --------------------------------------------------------------------- 3

def test_criterion_3_learner_correctness(capsys):
    t0 = time.time()
    checks = {}

    # (a) logit vs refined grid-search oracle, two 2-parameter problems
    worst = 0.0
    for seed in (21, 22):
        rng = np.random.default_rng(seed)
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

        c0 = c1 = 0.0
        half = 6.0
        for _ in range(3):
            c0, c1 = grid_argmax(c0, c1, half)
            half *= 0.024
        worst = max(
            worst,
            abs(model.params["intercept"] - c0),
            abs(model.params["coef"][0] - c1),
        )
    analytic = fit_logit(
        TrainingSet.build(np.zeros((4, 0)), np.array([1.0, 0, 0, 0]), ())
    ).params["intercept"]
    checks["a"] = worst <= 1e-3 and abs(analytic - math.log(1.0 / 3.0)) <= 1e-6

    # (b) elastic net: lambda=0 vs logit, large lambda, 1-D objective oracle
    rng = np.random.default_rng(9)
    X = rng.normal(size=(80, 3))
    y = (rng.random(80) < _sigmoid(X @ np.array([1.5, -2.0, 0.7]))).astype(float)
    train = TrainingSet.build(X, y, ("a", "b", "c"))
    ml, me = fit_logit(train), fit_elastic_net(train, lam=0.0)
    zero_gap = max(
        float(np.max(np.abs(ml.params["coef"] - me.params["coef"]))),
        abs(ml.params["intercept"] - me.params["intercept"]),
    )
    big = fit_elastic_net(train, lam=1e6)
    slopes_zeroed = bool(np.array_equal(big.params["coef"], np.zeros(3)))
    x1 = np.array([-1.0, -1.0, 1.0, 1.0])
    y1 = np.array([0.0, 0.0, 1.0, 1.0])
    lam = 0.3
    m1 = fit_elastic_net(TrainingSet.build(x1[:, None], y1, ("x",)), lam=lam)
    betas = np.linspace(-5, 5, 2000001)
    margins = np.outer(2 * y1 - 1, betas) * x1[:, None]
    obj = np.sum(np.logaddexp(0.0, -margins), axis=0) + lam * (np.abs(betas) + betas**2)
    oracle_beta = betas[np.argmin(obj)]
    oracle_gap = abs(m1.params["coef"][0] - oracle_beta)
    checks["b"] = zero_gap <= 1e-4 and slopes_zeroed and oracle_gap <= 1e-3

    # (c) neural-net analytic gradients vs central finite differences
    rng = np.random.default_rng(5)
    Z = rng.normal(size=(7, 3))
    yn = np.array([1, 0, 1, 1, 0, 0, 1], dtype=float)
    W1 = rng.normal(size=(3, 4))
    b1 = rng.normal(size=4)
    w2 = rng.normal(size=4)
    b2 = 0.3
    decay = 0.05
    _, gW1, gb1, gw2, gb2 = nn_loss_and_grads(Z, yn, W1, b1, w2, b2, decay)
    worst_rel = 0.0
    for arr, grad in ((W1, gW1), (b1, gb1), (w2, gw2)):
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            k = it.multi_index
            h = 1e-5 * max(1.0, abs(arr[k]))
            orig = arr[k]
            arr[k] = orig + h
            up = nn_loss_and_grads(Z, yn, W1, b1, w2, b2, decay)[0]
            arr[k] = orig - h
            dn = nn_loss_and_grads(Z, yn, W1, b1, w2, b2, decay)[0]
            arr[k] = orig
            fd = (up - dn) / (2 * h)
            worst_rel = max(worst_rel, abs(fd - grad[k]) / max(1.0, abs(grad[k])))
    h = 1e-5
    fd = (
        nn_loss_and_grads(Z, yn, W1, b1, w2, b2 + h, decay)[0]
        - nn_loss_and_grads(Z, yn, W1, b1, w2, b2 - h, decay)[0]
    ) / (2 * h)
    worst_rel = max(worst_rel, abs(fd - gb2) / max(1.0, abs(gb2)))
    checks["c"] = worst_rel <= 1e-5

    # (d) LogitBoost: non-increasing loss; threshold and XOR patterns
    X, yb = X[:60], y[:60]
    train_b = TrainingSet.build(X, yb, ("a", "b", "c"))
    boost = fit_logitboost(train_b, rounds=30)
    F = np.full(len(yb), boost.params["f0"])
    losses = [np.sum(np.logaddexp(0.0, F) - yb * F)]
    for feat, thr, lo_v, hi_v in boost.params["stumps"]:
        F = F + (
            np.full(len(yb), lo_v)
            if feat < 0
            else np.where(train_b.Z[:, feat] < thr, lo_v, hi_v)
        )
        losses.append(np.sum(np.logaddexp(0.0, F) - yb * F))
    non_increasing = bool(np.all(np.diff(losses) <= 1e-9))

    xs = np.linspace(-2, 2, 40)
    ys = (xs > 0.1).astype(float)
    stump_model = fit_logitboost(TrainingSet.build(xs[:, None], ys, ("x",)), rounds=15)
    stump_acc = float(
        np.mean((stump_model.predict_proba(xs[:, None], ("x",)) >= 0.5) == ys)
    )

    rng = np.random.default_rng(12)
    centers = np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]], dtype=float)
    idx = rng.integers(0, 4, size=160)
    Xx = centers[idx] + rng.normal(0, 0.08, size=(160, 2))
    yx = (np.sign(Xx[:, 0]) == np.sign(Xx[:, 1])).astype(float)
    xor_model = fit_logitboost(TrainingSet.build(Xx, yx, ("u", "v")), rounds=500)
    xor_acc = float(np.mean((xor_model.predict_proba(Xx, ("u", "v")) >= 0.5) == yx))
    checks["d"] = non_increasing and stump_acc >= 0.95 and xor_acc >= 0.95

    elapsed = time.time() - t0
    ok = all(checks.values()) and elapsed < 120
    _report(
        capsys, 3, ok,
        f"(a) grid gap {worst:.1e}; (b) lam0 gap {zero_gap:.1e}, slopes zeroed "
        f"{slopes_zeroed}, 1-D oracle gap {oracle_gap:.1e}; (c) grad rel err "
        f"{worst_rel:.1e}; (d) loss monotone {non_increasing}, stump acc "
        f"{stump_acc:.3f}, XOR acc {xor_acc:.3f}; {elapsed:.1f}s",
    )


# --------------------------------------------------------------------- 4

def bridged_cliques(a, b):
    nodes = tuple(f"v{k}" for k in range(a + b))
    und = set()
    for base, size in ((0, a), (a, b)):
        for i in range(base, base + size):
            for j in range(i + 1, base + size):
                und.add((nodes[i], nodes[j]))
    und.add((nodes[0], nodes[a]))
    return nodes, frozenset(und)


def test_criterion_4_latent_structure(capsys):
    t0 = time.time()

    families = [(a, b) for a in range(2, 7) for b in range(a, 7) if a + b <= 8]
    walktrap_ok = True
    for a, b in families:
        nodes, edges = bridged_cliques(a, b)
        net = make_net(edges, nodes)
        part = walktrap(net)
        groups: dict = {}
        for node, label in zip(net.nodes, part.labels):
            groups.setdefault(label, set()).add(node)
        found = frozenset(frozenset(g) for g in groups.values())
        best, best_q, unique = best_modularity_partition(
            len(nodes), {(nodes.index(u), nodes.index(v)) for u, v in edges}
        )
        best_named = frozenset(frozenset(nodes[k] for k in g) for g in best)
        walktrap_ok = walktrap_ok and unique and found == best_named
        walktrap_ok = walktrap_ok and abs(part.modularity - best_q) < 1e-12

    mm_nodes = tuple(f"v{k:02d}" for k in range(20))
    block = {n: (0 if k < 10 else 1) for k, n in enumerate(mm_nodes)}
    wins = 0
    for s in range(40):
        rng = np.random.default_rng(1000 + s)
        edges = set()
        for i in mm_nodes:
            for j in mm_nodes:
                if i != j and rng.random() < (0.8 if block[i] == block[j] else 0.05):
                    edges.add((i, j))
        net = make_net(edges, mm_nodes)
        fit = fit_mmsbm(net, K=2, restarts=3, max_iter=200, tol=1e-6, seed=s)
        P = fit.pi @ fit.B @ fit.pi.T  # mm_nodes are sorted: rows in their order
        within = np.mean(
            [P[a, b] for a, i in enumerate(mm_nodes) for b, j in enumerate(mm_nodes)
             if i != j and block[i] == block[j]]
        )
        between = np.mean(
            [P[a, b] for a, i in enumerate(mm_nodes) for b, j in enumerate(mm_nodes)
             if i != j and block[i] != block[j]]
        )
        wins += within > between
    mmsbm_ok = wins >= 38  # >= 95% of 40 runs

    line_nodes = tuple(f"u{k:02d}" for k in range(12))
    line_edges = frozenset(
        (line_nodes[a], line_nodes[b])
        for a in range(12) for b in range(12)
        if a != b and abs(a - b) <= 2
    )
    fit = fit_latent_space(make_net(line_edges, line_nodes), seed=0)
    d_fit, d_true = [], []
    for a in range(12):
        for b in range(a + 1, 12):
            d_fit.append(float(np.sqrt(np.sum((fit.positions[a] - fit.positions[b]) ** 2))))
            d_true.append(abs(a - b))
    rho = spearman(d_fit, d_true)
    latent_ok = rho > 0.8

    elapsed = time.time() - t0
    ok = walktrap_ok and mmsbm_ok and latent_ok and elapsed < 180
    _report(
        capsys, 4, ok,
        f"walktrap == exhaustive best on {len(families)} bridged-clique "
        f"families {walktrap_ok}; MMSBM within>between {wins}/40; latent "
        f"Spearman rho {rho:.3f}; {elapsed:.1f}s",
    )


# --------------------------------------------------------------------- 5

HYGIENE_LATENT = LatentConfig(
    walk_length=3, mmsbm_k=2, mmsbm_restarts=1, mmsbm_max_iter=40,
    mmsbm_tol=1e-5, latent_dim=2, latent_tau=0.1, latent_starts=1,
    latent_max_iter=40,
)
HYGIENE_PARAMS = {
    "logit": {},
    "elastic-net": {"lam": 0.1},
    "logitboost": {"rounds": 8},
    "neural-net": {"hidden": 2, "decay": 0.5, "max_iter": 40, "restarts": 1},
}


def test_criterion_5_temporal_hygiene(capsys):
    t0 = time.time()
    spec = SyntheticSpec(
        n_nodes=15, periods=30, base_rate=0.06, persistence=0.4,
        block_affinity=0.8, n_blocks=2, time_varying_covariates=True, seed=31,
    )
    panel, table, _ = generate_synthetic(spec)
    cache = BundleCache()

    def cfg(depth, first=9, last=30):
        return ExperimentConfig(
            first_period=first, last_period=last, lags=(1, 5), depth=depth,
            learner_params=HYGIENE_PARAMS,
            features=FeatureConfig(latent=HYGIENE_LATENT),
            master_seed=3, bootstrap_replicates=100,
        )

    baselines = {d: run_experiment(cfg(d), panel, table, cache=cache) for d in (1, 3)}
    mismatches = []
    checked = 0

    def cells_match(c, b, scores_only=False):
        if not np.array_equal(c.scores, b.scores):
            return False
        if scores_only:
            return True
        return (
            c.status == b.status
            and _float_eq(c.auc_pr, b.auc_pr)
            and _float_eq(c.auc_roc, b.auc_roc)
        )

    # every cell recomputed from a panel with ALL later periods deleted:
    # equality here rules out influence from any future event whatsoever
    for d in (1, 3):
        for t in range(9, 31):
            truncated = EventPanel(
                events=tuple(e for e in panel.events if e[2] <= t),
                registry=panel.registry,
            )
            res = run_experiment(cfg(d, first=t, last=t), truncated, table, cache=cache)
            for c in res.cells:
                checked += 1
                if not cells_match(c, baselines[d].cell(*c.key())):
                    mismatches.append(("truncate", d, c.key()))

    # literal single-event perturbations: toggle one event at period q and
    # re-run everything up to q; scores at t <= q must be untouched (labels
    # at t == q may change, so that period is compared on scores alone)
    for q in (12, 30):
        toggle = ("n00", "n01", q)
        events = set(panel.events)
        events = events - {toggle} if toggle in events else events | {toggle}
        perturbed = EventPanel(events=tuple(sorted(events)), registry=panel.registry)
        for d in (1, 3):
            res = run_experiment(cfg(d, last=q), perturbed, table, cache=cache)
            for c in res.cells:
                checked += 1
                if not cells_match(
                    c, baselines[d].cell(*c.key()), scores_only=(c.period == q)
                ):
                    mismatches.append(("toggle", q, d, c.key()))

    elapsed = time.time() - t0
    ok = not mismatches and elapsed < 300
    _report(
        capsys, 5, ok,
        f"{checked} cell comparisons across truncation sweep and event "
        f"toggles at q=12/30, {len(mismatches)} mismatches"
        + (f" (first: {mismatches[0]})" if mismatches else "")
        + f"; {elapsed:.1f}s",
    )


# --------------------------------------------------------------------- 6

def test_criterion_6_signal_recovery(capsys):
    t0 = time.time()
    latent = LatentConfig(
        walk_length=3, mmsbm_k=2, mmsbm_restarts=1, mmsbm_max_iter=60,
        mmsbm_tol=1e-5, latent_dim=2, latent_tau=0.1, latent_starts=1,
        latent_max_iter=60,
    )

    def world_rows(spec):
        panel, table, _ = generate_synthetic(spec)
        config = ExperimentConfig(
            first_period=4, last_period=spec.periods, lags=(1,), depth=1,
            spec_classes=("endogenous-only", "covariates-only"),
            learners=("elastic-net",),
            learner_params={"elastic-net": {"lam": 0.01}},
            features=FeatureConfig(latent=latent), master_seed=11,
        )
        result = run_experiment(config, panel, table)
        return {r.spec_class: r for r in result.aggregate}

    endo_world = world_rows(
        SyntheticSpec(
            n_nodes=12, periods=24, n_blocks=2, block_affinity=1.2,
            persistence=0.5, base_rate=0.04, time_varying_covariates=True, seed=21,
        )
    )
    e1, c1 = endo_world["endogenous-only"], endo_world["covariates-only"]
    endo_sep = e1.pr_lo > c1.pr_hi

    cov_world = world_rows(
        SyntheticSpec(
            n_nodes=12, periods=24, base_rate=0.04,
            covariate_effects={
                "trade-dependence": 1.5, "capital-distance": -1.0,
                "joint-democracy": 1.0,
            },
            time_varying_covariates=True, seed=22,
        )
    )
    e2, c2 = cov_world["endogenous-only"], cov_world["covariates-only"]
    cov_sep = c2.pr_lo > e2.pr_hi

    elapsed = time.time() - t0
    ok = endo_sep and cov_sep and elapsed < 600
    _report(
        capsys, 6, ok,
        f"planted structure: endo CI [{e1.pr_lo:.3f},{e1.pr_hi:.3f}] vs cov "
        f"[{c1.pr_lo:.3f},{c1.pr_hi:.3f}], separated {endo_sep}; planted "
        f"covariates: cov CI [{c2.pr_lo:.3f},{c2.pr_hi:.3f}] vs endo "
        f"[{e2.pr_lo:.3f},{e2.pr_hi:.3f}], separated {cov_sep}; {elapsed:.1f}s",
    )


# --------------------------------------------------------------------- 7

def test_criterion_7_diagnostic_pipeline(capsys):
    class Fake:
        def __init__(self, coefs):
            self._c = coefs

        def coefficients(self):
            return dict(self._c)

    entries = coefficient_ratio(
        Fake({"a": 0.02, "b": 0.0095, "c": 0.0, "d": 0.5}),
        Fake({"a": 2.0, "b": 1.0, "c": 1.0, "d": 0.0}),
    )
    by = {feature: (ratio, selected) for feature, ratio, selected in entries}
    rule_ok = (
        by["a"][0] == 0.01 and by["a"][1] is True
        and by["b"][0] == 0.0095 and by["b"][1] is False
        and by["c"][0] == 0.0 and by["c"][1] is False
        and math.isnan(by["d"][0]) and by["d"][1] is None
    )

    roll = rolling_mean([(1, 0.0), (2, 3.0), (3, 6.0)], width=3)
    roll_ok = roll == [(1, 1.5), (2, 3.0), (3, 4.5)]

    series = RatioSeries(rows=[])
    series.add(1, [("f", 0.012, True)])
    series.add(2, [("f", 0.006, False)])
    series.add(3, [("f", 0.009, False)])
    rows = series.with_smoothing(width=3)
    series_ok = rows == [
        (1, "f", 0.012, 0.009000000000000001, True),
        (2, "f", 0.006, 0.009000000000000001, False),
        (3, "f", 0.009, 0.0075, False),
    ]

    ok = rule_ok and roll_ok and series_ok
    _report(
        capsys, 7, ok,
        f"0.01 selection rule exact {rule_ok}; rolling means match hand "
        f"arithmetic {roll_ok}; smoothed ratio series {series_ok}",
    )


# --------------------------------------------------------------------- 8

def test_criterion_8_determinism(capsys, tmp_path):
    t0 = time.time()
    panel, table, _ = generate_synthetic(
        SyntheticSpec(n_nodes=8, periods=12, base_rate=0.15, persistence=0.3, seed=7)
    )
    config = ExperimentConfig(
        first_period=4, last_period=12, lags=(1, 2), depth=1, master_seed=5,
        learner_params=HYGIENE_PARAMS,
        features=FeatureConfig(latent=HYGIENE_LATENT),
        bootstrap_replicates=2000,
    )
    outputs = []
    for k in (1, 2):
        result = run_experiment(config, panel, table, cache=BundleCache())
        out = tmp_path / f"run{k}"
        write_outputs(result, out)
        outputs.append(out)
    same = {
        name: (outputs[0] / name).read_bytes() == (outputs[1] / name).read_bytes()
        for name in ("cells.csv", "aggregate.csv", "ratios.csv")
    }
    elapsed = time.time() - t0
    ok = all(same.values())
    _report(
        capsys, 8, ok,
        "byte-identical: "
        + ", ".join(f"{n} {v}" for n, v in same.items())
        + f"; {elapsed:.1f}s",
    )
