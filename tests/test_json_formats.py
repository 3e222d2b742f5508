"""The JSON text of every saved type, pinned byte for byte.

Latent bundles (``DYADCAST_CACHE_DIR``), model dumps, ``config.json`` and
generator specs are files that other processes and later versions read
back, so their text must not drift. Each case below is a hand-built
instance with literal values; its ``json.dumps`` text is compared with a
literal string, and decoding then re-encoding must give the same text.
The bundle text is the format of its ``BUNDLE_VERSION``, which is part of
the cache key: a new text comes with a new version.
"""

import json

import numpy as np
import pytest

from dyadcast import (
    CommunityPartition,
    ExperimentConfig,
    FeatureConfig,
    FittedModel,
    LatentBundle,
    LatentConfig,
    LatentSpaceFit,
    MMSBMFit,
    Standardizer,
    SyntheticSpec,
    TuneGrid,
)
from dyadcast.latent import BUNDLE_VERSION


def partition():
    return CommunityPartition(
        labels=(0, 1, 1), modularity=0.25, walk_length=3, merges=((1, 2, 3), (0, 3, 4)),
    )


def mmsbm():
    return MMSBMFit(
        pi=np.array([[0.75, 0.25], [0.5, 0.5], [0.125, 0.875]]),
        B=np.array([[0.875, 0.0625], [0.25, 0.5]]),
        stop="tolerance", n_iter=7, objective=-4.5,
    )


def latent_space():
    return LatentSpaceFit(
        positions=np.array([[0.5, -1.0], [0.0, 2.25], [-0.75, 0.125]]),
        alpha=1.5, stop="cap", n_iter=12, objective=-3.25,
    )


def bundle():
    return LatentBundle(
        nodes=("a", "b", "c"), partition=partition(), mmsbm=mmsbm(), latent=latent_space(),
        content_hash="c0ffee",
    )


def standardizer():
    return Standardizer(
        input_names=("x", "y", "z"), kept=np.array([0, 2]),
        means=np.array([0.5, -1.0]), sds=np.array([2.0, 0.25]), dropped=("y",),
    )


def empty_standardizer():
    return Standardizer(
        input_names=("x",), kept=np.array([], dtype=int),
        means=np.array([]), sds=np.array([]), dropped=("x",),
    )


def logit_model():
    return FittedModel(
        kind="logit", standardizer=standardizer(),
        params={"intercept": -0.5, "coef": np.array([1.25, -0.75])},
        stop="tolerance", n_iter=6, objective=2.5,
    )


def elastic_net_model():
    return FittedModel(
        kind="elastic-net", standardizer=standardizer(),
        params={
            "intercept": 0.25, "coef": np.array([0.5, 0.0]), "lam": 0.01,
            "raw_intercept": 0.125, "raw_coef": np.array([0.25, 0.0, 0.0]),
        },
        stop="tolerance", n_iter=4, objective=1.75, capped=2,
        diagnostics={
            "seed": 3,
            "tuning": {
                "params": {"lam": 0.01}, "score": 0.5, "folds": 2,
                "extensions": 1, "at_boundary": False,
            },
        },
    )


def logitboost_model():
    return FittedModel(
        kind="logitboost", standardizer=standardizer(),
        params={
            "f0": -1.5, "stumps": [(1, 0.5, -0.25, 0.75), (-1, 0.0, 0.125, 0.125)], "rounds": 2,
        },
        stop="cap", n_iter=2, objective=3.5, diagnostics={"seed": 1},
    )


def neural_net_model():
    return FittedModel(
        kind="neural-net", standardizer=standardizer(),
        params={
            "W1": np.array([[0.5, -0.5], [1.0, 0.25]]), "b1": np.array([0.0, 0.125]),
            "w2": np.array([1.5, -2.0]), "b2": 0.25, "hidden": 2, "decay": 0.1,
        },
        stop="step", n_iter=40, objective=2.75, diagnostics={"failed_starts": 0, "seed": 2},
    )


def spec():
    return SyntheticSpec(
        n_nodes=6, periods=4, n_blocks=3, block_affinity=1.5, persistence=0.25,
        base_rate=0.1, covariate_effects={"contiguity": 0.5},
        covariate_names=("contiguity", "trade-dependence"),
        time_varying_covariates=True, initial_edges=((0, 1), (2, 3)),
        rate_band=(0.0, 0.5), max_attempts=5, seed=9,
    )


def config():
    return ExperimentConfig(
        events="e.csv", registry=None, covariates="c.csv", first_period=3,
        last_period=9, lags=(1, 4), spec_classes=("combined",),
        learners=("logit", "neural-net"), depth=2, master_seed=11, tune_folds=3,
        tune_grid=TuneGrid(enet_lambda=(0.5,), nn_hidden=(2, 3), nn_decay=(0.25,),
                           boost_rounds=(5,)),
        learner_params={"neural-net": {"hidden": 2, "decay": 0.5}},
        features=FeatureConfig(
            latent=LatentConfig(walk_length=3, mmsbm_k=2, mmsbm_restarts=1,
                                mmsbm_max_iter=40, mmsbm_tol=1e-05, latent_dim=3,
                                latent_tau=0.5, latent_starts=2, latent_max_iter=60),
            exclude_focal_flow=True, covariate_offset=2, max_missing=0.25,
        ),
        bootstrap_replicates=200, bootstrap_level=0.9, output_dir="out", dump_models=True,
    )


PARTITION = (
    '{"labels": [0, 1, 1], "modularity": 0.25, "walk_length": 3, '
    '"merges": [[1, 2, 3], [0, 3, 4]]}'
)
MMSBM = (
    '{"stop": "tolerance", "n_iter": 7, "objective": -4.5, "capped": 0, '
    '"pi": [[0.75, 0.25], [0.5, 0.5], [0.125, 0.875]], '
    '"B": [[0.875, 0.0625], [0.25, 0.5]]}'
)
LATENT = (
    '{"stop": "cap", "n_iter": 12, "objective": -3.25, "capped": 0, '
    '"positions": [[0.5, -1.0], [0.0, 2.25], [-0.75, 0.125]], "alpha": 1.5}'
)
STANDARDIZER = (
    '{"input_names": ["x", "y", "z"], "kept": [0, 2], "means": [0.5, -1.0], '
    '"sds": [2.0, 0.25], "dropped": ["y"]}'
)

CASES = {
    "partition": (partition, PARTITION),
    "mmsbm": (mmsbm, MMSBM),
    "latent-space": (latent_space, LATENT),
    "bundle": (
        bundle,
        '{"nodes": ["a", "b", "c"], "partition": ' + PARTITION + ', "mmsbm": ' + MMSBM
        + ', "latent": ' + LATENT + ', "content_hash": "c0ffee"}',
    ),
    "standardizer": (standardizer, STANDARDIZER),
    "empty-standardizer": (
        empty_standardizer,
        '{"input_names": ["x"], "kept": [], "means": [], "sds": [], "dropped": ["x"]}',
    ),
    "logit": (
        logit_model,
        '{"stop": "tolerance", "n_iter": 6, "objective": 2.5, "capped": 0, '
        '"kind": "logit", "standardizer": ' + STANDARDIZER + ', "params": '
        '{"intercept": -0.5, "coef": {"__array__": [1.25, -0.75]}}, "diagnostics": {}}',
    ),
    "elastic-net": (
        elastic_net_model,
        '{"stop": "tolerance", "n_iter": 4, "objective": 1.75, "capped": 2, '
        '"kind": "elastic-net", "standardizer": ' + STANDARDIZER + ', "params": '
        '{"intercept": 0.25, "coef": {"__array__": [0.5, 0.0]}, "lam": 0.01, '
        '"raw_intercept": 0.125, "raw_coef": {"__array__": [0.25, 0.0, 0.0]}}, '
        '"diagnostics": {"seed": 3, "tuning": {"params": {"lam": 0.01}, "score": 0.5, "folds": 2, "extensions": 1, '
        '"at_boundary": false}}}',
    ),
    "logitboost": (
        logitboost_model,
        '{"stop": "cap", "n_iter": 2, "objective": 3.5, "capped": 0, '
        '"kind": "logitboost", "standardizer": ' + STANDARDIZER + ', "params": '
        '{"f0": -1.5, "stumps": [[1, 0.5, -0.25, 0.75], [-1, 0.0, 0.125, 0.125]], '
        '"rounds": 2}, "diagnostics": {"seed": 1}}',
    ),
    "neural-net": (
        neural_net_model,
        '{"stop": "step", "n_iter": 40, "objective": 2.75, "capped": 0, '
        '"kind": "neural-net", "standardizer": ' + STANDARDIZER + ', "params": '
        '{"W1": {"__array__": [[0.5, -0.5], [1.0, 0.25]]}, "b1": {"__array__": [0.0, 0.125]}, '
        '"w2": {"__array__": [1.5, -2.0]}, "b2": 0.25, "hidden": 2, "decay": 0.1}, '
        '"diagnostics": {"failed_starts": 0, "seed": 2}}',
    ),
    "spec": (
        spec,
        '{"n_nodes": 6, "periods": 4, "n_blocks": 3, "block_affinity": 1.5, '
        '"persistence": 0.25, "base_rate": 0.1, "covariate_effects": {"contiguity": 0.5}, '
        '"covariate_names": ["contiguity", "trade-dependence"], '
        '"time_varying_covariates": true, "initial_edges": [[0, 1], [2, 3]], '
        '"rate_band": [0.0, 0.5], "max_attempts": 5, "seed": 9}',
    ),
    "default-spec": (
        SyntheticSpec,
        '{"n_nodes": 15, "periods": 30, "n_blocks": 2, "block_affinity": 0.0, '
        '"persistence": 0.0, "base_rate": 0.05, "covariate_effects": {}, '
        '"covariate_names": ["joint-democracy", "trade-dependence", "contiguity", '
        '"capital-distance"], "time_varying_covariates": false, "initial_edges": [], '
        '"rate_band": [0.0, 1.0], "max_attempts": 20, "seed": 0}',
    ),
    "config": (
        config,
        '{"events": "e.csv", "registry": null, "covariates": "c.csv", "first_period": 3, '
        '"last_period": 9, "lags": [1, 4], "spec_classes": ["combined"], '
        '"learners": ["logit", "neural-net"], "depth": 2, "master_seed": 11, '
        '"tune_folds": 3, "tune_grid": {"enet_lambda": [0.5], "nn_hidden": [2, 3], '
        '"nn_decay": [0.25], "boost_rounds": [5]}, "learner_params": {"neural-net": '
        '{"hidden": 2, "decay": 0.5}}, "features": {"latent": {"walk_length": 3, '
        '"mmsbm_k": 2, "mmsbm_restarts": 1, "mmsbm_max_iter": 40, "mmsbm_tol": 1e-05, '
        '"latent_dim": 3, "latent_tau": 0.5, "latent_starts": 2, "latent_max_iter": 60}, '
        '"exclude_focal_flow": true, "covariate_offset": 2, "max_missing": 0.25}, '
        '"bootstrap_replicates": 200, "bootstrap_level": 0.9, "output_dir": "out", '
        '"dump_models": true}',
    ),
    "default-config": (
        ExperimentConfig,
        '{"events": null, "registry": null, "covariates": null, "first_period": 1979, '
        '"last_period": 2001, "lags": [1, 5, 10], "spec_classes": ["endogenous-only", '
        '"covariates-only", "combined"], "learners": ["logit", "elastic-net", '
        '"logitboost", "neural-net"], "depth": 1, "master_seed": 0, "tune_folds": 5, '
        '"tune_grid": {"enet_lambda": [0.001, 0.01, 0.1, 1.0, 10.0], '
        '"nn_hidden": [2, 4, 8], "nn_decay": [0.01, 0.1, 1.0], '
        '"boost_rounds": [10, 25, 50, 100, 200]}, "learner_params": {}, '
        '"features": {"latent": {"walk_length": 4, "mmsbm_k": 4, "mmsbm_restarts": 5, '
        '"mmsbm_max_iter": 300, "mmsbm_tol": 1e-07, "latent_dim": 2, "latent_tau": 0.1, '
        '"latent_starts": 3, "latent_max_iter": 500}, "exclude_focal_flow": false, '
        '"covariate_offset": 1, "max_missing": 0.5}, "bootstrap_replicates": 10000, '
        '"bootstrap_level": 0.95, "output_dir": "dyadcast-out", "dump_models": false}',
    ),
}


def decode(obj):
    return type(obj).from_json(json.loads(json.dumps(obj.to_json())))


@pytest.mark.parametrize("name", sorted(CASES))
def test_json_text_is_pinned(name):
    build, text = CASES[name]
    obj = build()
    assert json.dumps(obj.to_json()) == text
    assert json.dumps(type(obj).from_json(json.loads(text)).to_json()) == text


def test_bundle_text_belongs_to_its_version():
    # re-pinning the bundle text above means raising BUNDLE_VERSION here too
    assert BUNDLE_VERSION == 3


def test_tuple_fields_decode_as_tuples():
    back = decode(bundle())
    assert back.partition.merges == ((1, 2, 3), (0, 3, 4))
    assert back.nodes == ("a", "b", "c") and back.partition.labels == (0, 1, 1)
    s = decode(spec())
    assert s == spec()
    assert s.initial_edges == ((0, 1), (2, 3)) and s.rate_band == (0.0, 0.5)
    cfg = decode(config())
    assert cfg == config()
    assert cfg.lags == (1, 4) and cfg.tune_grid.nn_hidden == (2, 3)
    std = decode(standardizer())
    assert std.input_names == ("x", "y", "z") and std.dropped == ("y",)


def test_arrays_decode_with_their_dtypes():
    back = decode(bundle())
    assert back.mmsbm.pi.dtype == float and back.mmsbm.B.shape == (2, 2)
    assert back.latent.positions.dtype == float
    for build in (standardizer, empty_standardizer):
        std = decode(build())
        assert std.kept.dtype.kind == "i"
        assert std.means.dtype == float and std.sds.dtype == float
    empty = decode(empty_standardizer())
    assert empty.transform(np.ones((3, 1)), ("x",)).shape == (3, 0)
    model = decode(neural_net_model())
    assert model.params["W1"].dtype == float and model.params["W1"].shape == (2, 2)


@pytest.mark.parametrize(
    "build", [logit_model, elastic_net_model, logitboost_model, neural_net_model]
)
def test_decoded_models_score_the_same(build):
    X = np.array([[0.0, 3.0, -1.0], [2.0, -1.0, 0.5], [-1.5, 0.0, 4.0]])
    names = ("x", "y", "z")
    model = build()
    assert np.array_equal(decode(model).predict_proba(X, names), model.predict_proba(X, names))


def test_missing_keys_take_the_field_defaults():
    part = json.loads(PARTITION)
    del part["merges"]
    assert CommunityPartition.from_json(part).merges == ()
    model = elastic_net_model().to_json()
    del model["capped"]
    assert FittedModel.from_json(model).capped == 0 != elastic_net_model().capped
    assert SyntheticSpec.from_json({"seed": 4}) == SyntheticSpec(seed=4)
    assert ExperimentConfig.from_json({"depth": 2}) == ExperimentConfig(depth=2)


def test_a_report_with_an_unknown_stop_is_rejected():
    fit = json.loads(LATENT)
    fit["stop"] = "converged"
    with pytest.raises(ValueError, match="^stop must be one of"):
        LatentSpaceFit.from_json(fit)
