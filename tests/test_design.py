from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dyadcast import (
    CovariateTable,
    DataError,
    FeatureConfig,
    SchemaError,
    aggregate_window,
    build_design,
    eligible_dyads,
    join_designs,
    stack_designs,
)
from dyadcast.design import _covariate_block
from dyadcast.design import SPEC_CLASSES, SPEC_COMBINED, SPEC_COVARIATES, SPEC_ENDOGENOUS
from dyadcast.features import ENDOGENOUS_FEATURE_NAMES

from helpers import covariate_block_oracle, make_panel, stub_bundle

NODES = ("a", "b", "c")


def panel_abc(extra=()):
    events = [("a", "b", 1), ("b", "c", 2), ("a", "b", 3)] + list(extra)
    registry = {n: (1, 5) for n in NODES}
    return make_panel(events, registry)


def bundle_abc():
    return stub_bundle(
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
    return CovariateTable.from_entries(entries, **kwargs)


CFG = FeatureConfig()


def endogenous(panel, period, lag=2, bundle=None):
    """The network block of ``period``, on the window [period-lag, period-1]
    aggregated here as the harness does."""
    net = aggregate_window(panel, period - lag, period - 1)
    return build_design(panel, period, SPEC_ENDOGENOUS, CFG, net, bundle or bundle_abc())


def test_endogenous_design_schema():
    d = endogenous(panel_abc(), 3)
    assert d.feature_names == ENDOGENOUS_FEATURE_NAMES
    assert d.X.shape == (6, 8)
    assert eligible_dyads(panel_abc(), 3) == [
        ("a", "b"), ("a", "c"), ("b", "a"), ("b", "c"), ("c", "a"), ("c", "b"),
    ]
    assert [f.name for f in fields(d)] == ["feature_names", "X", "y"]


def test_labels_come_from_focal_period():
    d = endogenous(panel_abc(), 3)
    lab = dict(zip(eligible_dyads(panel_abc(), 3), d.y))
    assert lab[("a", "b")] == 1.0
    assert sum(d.y) == 1
    assert d.y.mean() == pytest.approx(1.0 / 6.0)
    # c is active at 2, so its dyads are rows of period 3, but it has left
    # by 3 and is not in that period's window: its dyads are 0
    left = make_panel(
        [("a", "b", 1), ("b", "c", 2), ("a", "b", 3)], {"a": (1, 5), "b": (1, 5), "c": (1, 2)}
    )
    lab = dict(zip(eligible_dyads(left, 3), endogenous(left, 3).y))
    assert lab == {d: float(d == ("a", "b")) for d in eligible_dyads(panel_abc(), 3)}


def test_covariate_design_schema_and_values():
    d = build_design(panel_abc(), 3, SPEC_COVARIATES, CFG, covariates=table_abc())
    assert d.feature_names == (
        "trade-dependence", "trade-dependence-missing", "contiguity", "contiguity-missing",
    )
    # offset 1: period-3 rows read covariates recorded at period 2
    assert np.allclose(d.X[:, 0], 0.2)
    assert np.all(d.X[:, 1] == 0.0)
    assert np.all(d.X[:, 2] == 1.0)


def test_covariate_offset_honored():
    cfg = FeatureConfig(covariate_offset=2)
    d = build_design(panel_abc(), 3, SPEC_COVARIATES, cfg, covariates=table_abc())
    assert np.allclose(d.X[:, 0], 0.1)


def test_combined_concatenates_blocks():
    """A combined design is the join of the two blocks: the network
    columns, then the covariate columns, labelled by the network block."""
    endo = endogenous(panel_abc(), 3)
    cov = build_design(panel_abc(), 3, SPEC_COVARIATES, CFG, covariates=table_abc())
    joined = join_designs(endo, cov)
    assert joined.feature_names[:8] == ENDOGENOUS_FEATURE_NAMES
    assert joined.feature_names[8:] == (
        "trade-dependence", "trade-dependence-missing", "contiguity", "contiguity-missing",
    )
    assert joined.X.shape == (6, 12) and joined.X.flags.c_contiguous
    assert joined.X.tobytes() == np.hstack([endo.X, cov.X]).tobytes()
    assert joined.y is endo.y and np.array_equal(cov.y, endo.y)


def test_combined_is_not_a_block():
    with pytest.raises(ValueError, match="spec_class"):
        build_design(
            panel_abc(), 3, SPEC_COMBINED, CFG, aggregate_window(panel_abc(), 1, 2),
            bundle_abc(), table_abc(),
        )


def test_blocks_aggregate_only_their_label_window(monkeypatch):
    """Each block reads its labels from its own period's one-period window;
    the network block's lag window is the caller's, never aggregated here."""
    import dyadcast.design as dz

    calls = []
    original = dz.aggregate_window
    monkeypatch.setattr(dz, "aggregate_window", lambda *a: calls.append(a) or original(*a))
    build_design(panel_abc(), 3, SPEC_COVARIATES, CFG, covariates=table_abc())
    assert [a[1:] for a in calls] == [(3, 3)]
    net = original(panel_abc(), 1, 2)
    build_design(panel_abc(), 3, SPEC_ENDOGENOUS, CFG, net, bundle_abc())
    assert [a[1:] for a in calls] == [(3, 3), (3, 3)]


def test_missing_covariate_imputed_and_flagged():
    entries = {}
    for i in NODES:
        for j in NODES:
            if i != j and not (i == "a" and j == "b"):
                entries[(2, i, j, "trade-dependence")] = 3.0
    d = build_design(
        panel_abc(), 3, SPEC_COVARIATES, CFG, covariates=CovariateTable.from_entries(entries)
    )
    row = dict(zip(eligible_dyads(panel_abc(), 3), d.X))
    assert row[("a", "b")][0] == 0.0 and row[("a", "b")][1] == 1.0
    assert row[("b", "c")][0] == 3.0 and row[("b", "c")][1] == 0.0


def test_excess_missingness_rejected():
    entries = {(2, "a", "b", "trade-dependence"): 3.0}  # 1 of 6 dyads present
    with pytest.raises(DataError, match="missing"):
        build_design(
            panel_abc(), 3, SPEC_COVARIATES, CFG,
            covariates=CovariateTable.from_entries(entries),
        )


def test_empty_covariate_table_rejected():
    with pytest.raises(DataError, match="names"):
        build_design(
            panel_abc(), 3, SPEC_COVARIATES, CFG, covariates=CovariateTable.from_entries({})
        )


def test_future_events_cannot_leak_into_predictors():
    shifted_panel = panel_abc(extra=[("b", "a", 3), ("c", "a", 4)])
    base = endogenous(panel_abc(), 3)
    shifted = endogenous(shifted_panel, 3)
    assert np.array_equal(base.X, shifted.X)
    assert eligible_dyads(panel_abc(), 3) == eligible_dyads(shifted_panel, 3)
    lab = dict(zip(eligible_dyads(shifted_panel, 3), shifted.y))
    assert lab[("b", "a")] == 1.0
    assert not np.array_equal(base.y, shifted.y)
    # a window that reaches the outcome period, or one that stops short of
    # the period before it, is not the lag window of this design
    for start, end in ((2, 3), (3, 3), (3, 4), (1, 1)):
        net = aggregate_window(shifted_panel, start, end)
        with pytest.raises(ValueError, match=rf"window \({start}, {end}\)"):
            build_design(shifted_panel, 3, SPEC_ENDOGENOUS, CFG, net, bundle_abc())


def test_requirements_validated():
    net = aggregate_window(panel_abc(), 1, 2)
    with pytest.raises(ValueError, match="bundle"):
        build_design(panel_abc(), 3, SPEC_ENDOGENOUS, CFG, net)
    with pytest.raises(ValueError, match="window"):
        build_design(panel_abc(), 3, SPEC_ENDOGENOUS, CFG, bundle=bundle_abc())
    with pytest.raises(ValueError, match="covariate"):
        build_design(panel_abc(), 3, SPEC_COVARIATES, CFG)
    with pytest.raises(ValueError, match="spec_class"):
        build_design(panel_abc(), 3, "everything", CFG, net, bundle_abc())


def test_non_finite_covariate_rejected():
    entries = {
        (2, i, j, "trade-dependence"): (np.inf if (i, j) == ("a", "b") else 1.0)
        for i in NODES for j in NODES if i != j
    }
    with pytest.raises(DataError, match="non-finite"):
        build_design(
            panel_abc(), 3, SPEC_COVARIATES, CFG,
            covariates=CovariateTable.from_entries(entries),
        )


def test_spec_classes_constant():
    assert SPEC_CLASSES == ("endogenous-only", "covariates-only", "combined")


def test_stack_designs():
    b = bundle_abc()
    d3 = endogenous(panel_abc(), 3, bundle=b)
    d4 = endogenous(panel_abc(), 4, bundle=b)
    X, y = stack_designs([d3, d4])
    assert X.shape == (12, 8)
    assert np.array_equal(X[:6], d3.X) and np.array_equal(X[6:], d4.X)
    assert np.array_equal(y, np.concatenate([d3.y, d4.y]))


def test_stack_designs_schema_mismatch():
    b = bundle_abc()
    d_endo = endogenous(panel_abc(), 3, bundle=b)
    d_cov = build_design(panel_abc(), 3, SPEC_COVARIATES, CFG, covariates=table_abc())
    with pytest.raises(SchemaError):
        stack_designs([d_endo, d_cov])
    with pytest.raises(ValueError):
        stack_designs([])


# ------------------------------------------------ covariate block oracle

BLOCK_NODES = ("a", "b", "c", "d")
BLOCK_NAMES = ("contiguity", "trade-dependence", "CINC-ratio")


@st.composite
def covariate_blocks(draw):
    """A table over periods 1-3 with cells left out at random, a period to
    read (0 and 4 are never in the table), dyads that may name ids the
    table lacks, and a max_missing often on a dyad-count boundary."""
    cells = [
        (p, i, j, name)
        for p in (1, 2, 3) for i in BLOCK_NODES for j in BLOCK_NODES if i != j
        for name in BLOCK_NAMES
    ]
    kept = draw(st.lists(st.sampled_from(cells), unique=True, max_size=len(cells)))
    number = st.one_of(st.sampled_from([0.0, -0.0, 1.5, 1e-300]), st.floats(-1e6, 1e6))
    entries = {
        key: draw(st.sampled_from([0.0, 1.0]) if key[3] == "contiguity" else number)
        for key in kept
    }
    pairs = [(i, j) for i in BLOCK_NODES + ("z",) for j in BLOCK_NODES + ("z",) if i != j]
    dyads = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=12))
    n = max(len(dyads), 1)
    max_missing = draw(st.one_of(st.integers(0, n).map(lambda k: k / n), st.floats(0.0, 1.0)))
    return CovariateTable.from_entries(entries), draw(st.integers(0, 4)), dyads, max_missing


def _block_or_error(block, table, period, dyads, max_missing):
    try:
        names, X = block(table, period, dyads, max_missing)
    except DataError as exc:
        return str(exc)
    return list(names), X.shape, X.tobytes()


@settings(max_examples=300)
@given(covariate_blocks())
@example((CovariateTable.from_entries({}), 1, [("a", "b")], 0.5))
@example((table_abc(), 5, [("a", "b"), ("b", "a")], 1.0))
@example((table_abc(), 2, [("a", "b"), ("a", "z")], 0.5))
@example((table_abc(), 2, [("a", "b"), ("a", "z"), ("z", "c")], 0.5))
@example((table_abc(), 2, [], 0.0))
def test_covariate_block_matches_its_lookup_oracle(case):
    """Same names and X bytes, or the same DataError text, as one entries
    lookup per dyad and name."""
    assert _block_or_error(_covariate_block, *case) == _block_or_error(
        covariate_block_oracle, *case
    )
