import json

import pytest

from dyadcast import (
    GenerationError,
    SyntheticSpec,
    generate_synthetic,
    load_covariates,
    load_events,
    save_synthetic,
)
from dyadcast.store import INDICATOR_COVARIATES


def all_dyads(panel):
    nodes = panel.nodes()
    return [(i, j) for i in nodes for j in nodes if i != j]


def test_node_naming_and_registry_span():
    panel, _, truth = generate_synthetic(SyntheticSpec(n_nodes=4, periods=3, seed=0))
    assert panel.nodes() == ["n00", "n01", "n02", "n03"]
    assert all(panel.registry[n] == (1, 3) for n in panel.nodes())
    assert truth.blocks == {"n00": 0, "n01": 1, "n02": 0, "n03": 1}


def test_full_persistence_freezes_initial_edges():
    spec = SyntheticSpec(
        n_nodes=5, periods=6, base_rate=0.0, persistence=1.0,
        initial_edges=((0, 1), (2, 3), (4, 0)), seed=9,
    )
    panel, _, truth = generate_synthetic(spec)
    expected = {("n00", "n01"), ("n02", "n03"), ("n04", "n00")}
    for p in range(1, 7):
        assert panel.events_at(p) == expected
    assert truth.rate == pytest.approx(3.0 / 20.0)


def test_base_rate_recovered():
    panel, _, truth = generate_synthetic(
        SyntheticSpec(n_nodes=12, periods=20, base_rate=0.1, seed=2)
    )
    se = (0.1 * 0.9 / (132 * 20)) ** 0.5
    assert abs(truth.rate - 0.1) <= 3 * se
    assert truth.intercept == pytest.approx(-2.1972245773362196, abs=1e-12)


def test_block_affinity_raises_within_block_rate():
    panel, _, truth = generate_synthetic(
        SyntheticSpec(n_nodes=12, periods=15, base_rate=0.05, block_affinity=1.5, seed=3)
    )
    within = between = wn = bn = 0
    for p in range(1, 16):
        ev = panel.events_at(p)
        for i, j in all_dyads(panel):
            if truth.blocks[i] == truth.blocks[j]:
                wn += 1
                within += (i, j) in ev
            else:
                bn += 1
                between += (i, j) in ev
    assert within / wn > 2 * (between / bn)


def test_persistence_raises_repeat_rate():
    panel, _, _ = generate_synthetic(
        SyntheticSpec(n_nodes=12, periods=20, base_rate=0.05, persistence=0.6, seed=4)
    )
    rep = norep = repn = norepn = 0
    for p in range(2, 21):
        prev, cur = panel.events_at(p - 1), panel.events_at(p)
        for d in all_dyads(panel):
            if d in prev:
                repn += 1
                rep += d in cur
            else:
                norepn += 1
                norep += d in cur
    assert rep / repn > 5 * (norep / norepn)


def test_covariate_effect_acts_through_lagged_value():
    panel, table, _ = generate_synthetic(
        SyntheticSpec(
            n_nodes=12, periods=20, base_rate=0.05,
            covariate_effects={"trade-dependence": 2.0},
            time_varying_covariates=True, seed=5,
        )
    )
    hi = lo = hn = ln = 0
    for p in range(2, 21):
        ev = panel.events_at(p)
        for i, j in all_dyads(panel):
            if table.value(p - 1, i, j, "trade-dependence") > 0:
                hn += 1
                hi += (i, j) in ev
            else:
                ln += 1
                lo += (i, j) in ev
    assert hi / hn > 5 * (lo / ln)


def test_static_covariates_repeat_across_periods():
    _, table, _ = generate_synthetic(SyntheticSpec(n_nodes=4, periods=5, seed=6))
    for (p, i, j, name), v in table.entries.items():
        assert v == table.entries[(1, i, j, name)]


def test_time_varying_covariates_change():
    _, table, _ = generate_synthetic(
        SyntheticSpec(n_nodes=4, periods=5, time_varying_covariates=True, seed=6)
    )
    diffs = sum(
        1
        for (p, i, j, name), v in table.entries.items()
        if v != table.entries[(1, i, j, name)]
    )
    assert diffs > 0


def test_indicator_covariates_are_binary():
    _, table, _ = generate_synthetic(SyntheticSpec(n_nodes=6, periods=3, seed=7))
    seen_continuous = False
    for (p, i, j, name), v in table.entries.items():
        if name in INDICATOR_COVARIATES:
            assert v in (0.0, 1.0)
        elif v not in (0.0, 1.0):
            seen_continuous = True
    assert seen_continuous


def test_generation_deterministic():
    spec = SyntheticSpec(n_nodes=8, periods=6, base_rate=0.1, seed=11)
    p1, t1, g1 = generate_synthetic(spec)
    p2, t2, g2 = generate_synthetic(spec)
    assert p1.events == p2.events
    assert t1.entries == t2.entries
    assert g1.rate == g2.rate
    p3, _, _ = generate_synthetic(SyntheticSpec(n_nodes=8, periods=6, base_rate=0.1, seed=12))
    assert p3.events != p1.events


def test_rate_band_exhaustion():
    spec = SyntheticSpec(
        n_nodes=6, periods=4, base_rate=0.5, rate_band=(0.0, 0.0001),
        max_attempts=2, seed=0,
    )
    with pytest.raises(GenerationError, match="rate band"):
        generate_synthetic(spec)


def test_easy_band_accepts_first_attempt():
    _, _, truth = generate_synthetic(SyntheticSpec(n_nodes=6, periods=4, seed=1))
    assert truth.attempts == 1


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_nodes": 1},
        {"periods": 0},
        {"n_blocks": 0},
        {"persistence": 1.5},
        {"base_rate": -0.1},
        {"covariate_names": ("gdp",)},
        {"covariate_effects": {"war-with-ally": 1.0}},
        {"rate_band": (0.5, 0.2)},
        {"initial_edges": ((0, 0),)},
        {"initial_edges": ((0, 99),)},
        {"max_attempts": 0},
        {"rate_band": (-0.1, 0.5)},
        {"rate_band": (0.1,)},
        {"initial_edges": ((-1, 0),)},
        {"covariate_names": ("contiguity", 5)},
        {"n_nodes": 2.5},
    ],
)
def test_spec_validation(kwargs):
    with pytest.raises(GenerationError):
        SyntheticSpec(**kwargs).validate()


def test_spec_json_round_trip():
    spec = SyntheticSpec(
        n_nodes=7, periods=9, block_affinity=0.4, persistence=0.2,
        covariate_effects={"trade-dependence": 1.0}, initial_edges=((0, 1),),
        rate_band=(0.0, 0.5), seed=13,
    )
    back = SyntheticSpec.from_json(json.loads(json.dumps(spec.to_json())))
    assert back == spec


def test_spec_from_json_rejects_unknown_keys():
    with pytest.raises(GenerationError, match="unknown"):
        SyntheticSpec.from_json({"n_nodes": 5, "flavor": "hot"})


@pytest.mark.parametrize(
    "bad,message",
    [
        ({"n_nodes": "5"}, "n_nodes must be an integer, got '5'"),
        ({"covariate_names": "contiguity"}, "covariate_names must be a list"),
        ({"covariate_effects": [1.0]}, "covariate_effects must be an object"),
        ({"time_varying_covariates": 1}, "time_varying_covariates must be a boolean"),
        ({"covariate_effects": {"contiguity": "x"}},
         "covariate_effects.contiguity must be a number, got 'x'"),
        ({"block_affinity": float("nan")}, "block_affinity must be finite, got nan"),
        ({"covariate_effects": {"contiguity": float("inf")}},
         "covariate_effects.contiguity must be finite, got inf"),
    ],
)
def test_spec_from_json_checks_value_types(bad, message):
    with pytest.raises(GenerationError, match=message):
        SyntheticSpec.from_json(json.loads(json.dumps(bad)))


def test_save_and_reload_round_trip(tmp_path):
    panel, table, _ = generate_synthetic(
        SyntheticSpec(n_nodes=5, periods=4, base_rate=0.2, seed=8)
    )
    paths = save_synthetic(panel, table, tmp_path / "out")
    reloaded = load_events(paths["events"], paths["registry"])
    assert reloaded.events == panel.events
    assert reloaded.registry == panel.registry
    retable = load_covariates(paths["covariates"])
    assert retable.entries == table.entries
