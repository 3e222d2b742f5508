import numpy as np
import pytest

from dyadcast import (
    CovariateTable,
    DataError,
    FeatureConfig,
    SchemaError,
    build_design,
    stack_designs,
)
from dyadcast.design import SPEC_CLASSES, SPEC_COMBINED, SPEC_COVARIATES, SPEC_ENDOGENOUS
from dyadcast.features import ENDOGENOUS_FEATURE_NAMES

from helpers import StubBundle, make_panel

NODES = ("a", "b", "c")


def panel_abc(extra=()):
    events = [("a", "b", 1), ("b", "c", 2), ("a", "b", 3)] + list(extra)
    registry = {n: (1, 5) for n in NODES}
    return make_panel(events, registry)


def bundle_abc():
    return StubBundle(
        labels={n: 0 for n in NODES},
        probs={(i, j): 0.5 for i in NODES for j in NODES if i != j},
        positions={n: (float(k), 0.0) for k, n in enumerate(NODES)},
    )


def table_abc(entries=None, **kwargs):
    if entries is None:
        entries = {}
        for i in NODES:
            for j in NODES:
                if i == j:
                    continue
                for p in (1, 2, 3, 4):
                    entries[(p, i, j, "trade-dependence")] = 0.1 * p
                    entries[(p, i, j, "contiguity")] = 1.0
    return CovariateTable(entries=entries, **kwargs)


CFG = FeatureConfig()


def test_endogenous_design_schema():
    d = build_design(panel_abc(), 3, 2, SPEC_ENDOGENOUS, CFG, bundle=bundle_abc())
    assert d.feature_names == ENDOGENOUS_FEATURE_NAMES
    assert d.X.shape == (6, 8)
    assert d.dyads == (
        ("a", "b"), ("a", "c"), ("b", "a"), ("b", "c"), ("c", "a"), ("c", "b"),
    )


def test_labels_come_from_focal_period():
    d = build_design(panel_abc(), 3, 2, SPEC_ENDOGENOUS, CFG, bundle=bundle_abc())
    lab = dict(zip(d.dyads, d.y))
    assert lab[("a", "b")] == 1.0
    assert sum(d.y) == 1
    assert d.n_positive == 1
    assert d.positive_rate == pytest.approx(1.0 / 6.0)


def test_covariate_design_schema_and_values():
    d = build_design(panel_abc(), 3, 1, SPEC_COVARIATES, CFG, covariates=table_abc())
    assert d.feature_names == (
        "trade-dependence", "trade-dependence-missing", "contiguity", "contiguity-missing",
    )
    # offset 1: period-3 rows read covariates recorded at period 2
    assert np.allclose(d.X[:, 0], 0.2)
    assert np.all(d.X[:, 1] == 0.0)
    assert np.all(d.X[:, 2] == 1.0)


def test_covariate_offset_honored():
    cfg = FeatureConfig(covariate_offset=2)
    d = build_design(panel_abc(), 3, 1, SPEC_COVARIATES, cfg, covariates=table_abc())
    assert np.allclose(d.X[:, 0], 0.1)


def test_combined_concatenates_blocks():
    d = build_design(
        panel_abc(), 3, 2, SPEC_COMBINED, CFG, bundle=bundle_abc(), covariates=table_abc()
    )
    assert d.feature_names[:8] == ENDOGENOUS_FEATURE_NAMES
    assert d.feature_names[8:] == (
        "trade-dependence", "trade-dependence-missing", "contiguity", "contiguity-missing",
    )
    assert d.X.shape == (6, 12)


def test_only_endogenous_blocks_aggregate_the_window(monkeypatch):
    import dyadcast.design as dz

    calls = []
    original = dz.aggregate_window
    monkeypatch.setattr(dz, "aggregate_window", lambda *a: calls.append(a) or original(*a))
    build_design(panel_abc(), 3, 2, SPEC_COVARIATES, CFG, covariates=table_abc())
    assert calls == []
    build_design(
        panel_abc(), 3, 2, SPEC_COMBINED, CFG, bundle=bundle_abc(), covariates=table_abc()
    )
    assert [a[1:] for a in calls] == [(1, 2)]


def test_missing_covariate_imputed_and_flagged():
    entries = {}
    for i in NODES:
        for j in NODES:
            if i != j and not (i == "a" and j == "b"):
                entries[(2, i, j, "trade-dependence")] = 3.0
    d = build_design(
        panel_abc(), 3, 1, SPEC_COVARIATES, CFG, covariates=CovariateTable(entries=entries)
    )
    row = dict(zip(d.dyads, d.X))
    assert row[("a", "b")][0] == 0.0 and row[("a", "b")][1] == 1.0
    assert row[("b", "c")][0] == 3.0 and row[("b", "c")][1] == 0.0


def test_excess_missingness_rejected():
    entries = {(2, "a", "b", "trade-dependence"): 3.0}  # 1 of 6 dyads present
    with pytest.raises(DataError, match="missing"):
        build_design(
            panel_abc(), 3, 1, SPEC_COVARIATES, CFG,
            covariates=CovariateTable(entries=entries),
        )


def test_empty_covariate_table_rejected():
    with pytest.raises(DataError, match="names"):
        build_design(
            panel_abc(), 3, 1, SPEC_COVARIATES, CFG, covariates=CovariateTable(entries={})
        )


def test_future_events_cannot_leak_into_predictors():
    base = build_design(panel_abc(), 3, 2, SPEC_ENDOGENOUS, CFG, bundle=bundle_abc())
    shifted = build_design(
        panel_abc(extra=[("b", "a", 3), ("c", "a", 4)]),
        3, 2, SPEC_ENDOGENOUS, CFG, bundle=bundle_abc(),
    )
    assert np.array_equal(base.X, shifted.X)
    assert base.dyads == shifted.dyads
    lab = dict(zip(shifted.dyads, shifted.y))
    assert lab[("b", "a")] == 1.0
    assert not np.array_equal(base.y, shifted.y)


def test_requirements_validated():
    with pytest.raises(ValueError, match="bundle"):
        build_design(panel_abc(), 3, 2, SPEC_ENDOGENOUS, CFG)
    with pytest.raises(ValueError, match="covariate"):
        build_design(panel_abc(), 3, 2, SPEC_COVARIATES, CFG)
    with pytest.raises(ValueError, match="spec_class"):
        build_design(panel_abc(), 3, 2, "everything", CFG, bundle=bundle_abc())
    with pytest.raises(ValueError, match="lag"):
        build_design(panel_abc(), 3, 0, SPEC_ENDOGENOUS, CFG, bundle=bundle_abc())


def test_non_finite_covariate_rejected():
    entries = {
        (2, i, j, "trade-dependence"): (np.inf if (i, j) == ("a", "b") else 1.0)
        for i in NODES for j in NODES if i != j
    }
    with pytest.raises(DataError, match="non-finite"):
        build_design(
            panel_abc(), 3, 1, SPEC_COVARIATES, CFG,
            covariates=CovariateTable(entries=entries),
        )


def test_spec_classes_constant():
    assert SPEC_CLASSES == ("endogenous-only", "covariates-only", "combined")


def test_stack_designs():
    b = bundle_abc()
    d3 = build_design(panel_abc(), 3, 2, SPEC_ENDOGENOUS, CFG, bundle=b)
    d4 = build_design(panel_abc(), 4, 2, SPEC_ENDOGENOUS, CFG, bundle=b)
    X, y = stack_designs([d3, d4])
    assert X.shape == (12, 8)
    assert np.array_equal(X[:6], d3.X) and np.array_equal(X[6:], d4.X)
    assert np.array_equal(y, np.concatenate([d3.y, d4.y]))


def test_stack_designs_schema_mismatch():
    b = bundle_abc()
    d_endo = build_design(panel_abc(), 3, 2, SPEC_ENDOGENOUS, CFG, bundle=b)
    d_cov = build_design(panel_abc(), 3, 1, SPEC_COVARIATES, CFG, covariates=table_abc())
    with pytest.raises(SchemaError):
        stack_designs([d_endo, d_cov])
    with pytest.raises(ValueError):
        stack_designs([])
