"""Benchmark workloads: a synthetic world spec and an experiment config each.

Every workload exists to stress a different layer of dyadcast; the README
in this directory explains why each one was chosen. A workload can be
run by name whether or not BENCHMARK.json lists it. ``size="smoke"`` shrinks a workload to a few seconds for the benchmark's
own tests while keeping its shape (same spec classes, learners and tuning
path).
"""

from __future__ import annotations

from dataclasses import dataclass, field

ALL_COVARIATES = (
    "joint-democracy",
    "trade-dependence",
    "joint-IGO-membership",
    "CINC-ratio",
    "capital-distance",
    "major-power-dyad",
    "defensive-alliance",
    "contiguity",
    "war-with-ally",
)


@dataclass(frozen=True)
class Workload:
    name: str
    spec: dict
    config: dict
    smoke_spec: dict = field(default_factory=dict)
    smoke_config: dict = field(default_factory=dict)

    def world_spec(self, seed: int, size: str = "full") -> dict:
        spec = dict(self.spec, seed=seed)
        if size == "smoke":
            spec.update(self.smoke_spec)
        return spec

    def experiment_config(self, size: str = "full") -> dict:
        config = dict(self.config)
        if size == "smoke":
            config.update(self.smoke_config)
        return config


SMOKE_LATENT = {
    "latent": {"mmsbm_restarts": 1, "mmsbm_max_iter": 20, "latent_starts": 1, "latent_max_iter": 20}
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="latent-wide",
            spec={
                "n_nodes": 40,
                "periods": 8,
                "n_blocks": 3,
                "block_affinity": 2.0,
                "persistence": 0.3,
                "base_rate": 0.06,
            },
            config={
                "first_period": 6,
                "last_period": 8,
                "lags": [1, 3],
                "spec_classes": ["endogenous-only", "combined"],
                "learners": ["logit"],
                # Fewer restarts than the defaults (5 and 3) so that a
                # 40-node world fits in a 6 s repetition.
                "features": {"latent": {"mmsbm_restarts": 3, "latent_starts": 2}},
            },
            smoke_spec={"n_nodes": 8, "periods": 6},
            smoke_config={"first_period": 5, "last_period": 6, "features": SMOKE_LATENT},
        ),
        Workload(
            name="tuned-default",
            # Not in BENCHMARK.json: two runs of it write different ratios.csv
            # files (see README.md in this directory).
            spec={
                "n_nodes": 10,
                "periods": 14,
                "n_blocks": 2,
                "block_affinity": 0.6,
                "persistence": 0.35,
                "base_rate": 0.12,
                "time_varying_covariates": True,
            },
            config={
                "first_period": 3,
                "last_period": 14,
                "lags": [1],
                "spec_classes": ["combined"],
                "tune_folds": 2,
                "tune_grid": {
                    "enet_lambda": [1.0, 10.0],
                    "nn_hidden": [2],
                    "nn_decay": [3.0, 10.0],
                    "boost_rounds": [10, 20],
                },
            },
            smoke_spec={"n_nodes": 6, "periods": 5},
            smoke_config={
                "first_period": 4,
                "last_period": 5,
                "features": SMOKE_LATENT,
                "tune_grid": {
                    "enet_lambda": [1.0, 10.0],
                    "nn_hidden": [2],
                    "nn_decay": [1.0, 10.0],
                    "boost_rounds": [5, 10],
                },
            },
        ),
        Workload(
            name="covariate-wide",
            spec={
                "n_nodes": 60,
                "periods": 6,
                "base_rate": 0.05,
                "persistence": 0.3,
                "covariate_names": list(ALL_COVARIATES),
                "covariate_effects": {
                    "contiguity": 1.0,
                    "capital-distance": -0.7,
                    "joint-democracy": -0.5,
                    "trade-dependence": 0.4,
                },
                "time_varying_covariates": True,
            },
            config={
                "first_period": 3,
                "last_period": 6,
                "lags": [1],
                "spec_classes": ["covariates-only"],
                "learners": ["logit", "elastic-net", "logitboost"],
                "learner_params": {"elastic-net": {"lam": 0.01}, "logitboost": {"rounds": 50}},
            },
            smoke_spec={"n_nodes": 8, "periods": 5},
            smoke_config={"first_period": 3, "last_period": 5},
        ),
    )
}
