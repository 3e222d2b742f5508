"""The benchmark's span wrappers must still find, and the program still
call, every function they wrap.

``perfbench/spans.py`` patches dyadcast functions by module and attribute
name. A refactor that moves or renames one of them, or stops calling it
through that name, would only show up in the benchmark's own runs as a
missing or empty span, so this checks each target here. The file is
loaded, never modified.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from dyadcast import (
    ExperimentConfig,
    FeatureConfig,
    LatentConfig,
    SyntheticSpec,
    TuneGrid,
    generate_synthetic,
    load_run_inputs,
    run_experiment,
    save_synthetic,
    write_outputs,
)

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _patches():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PATCHES


def _owner(module, attribute):
    owner = importlib.import_module(module)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


@pytest.mark.parametrize("module,attribute", [(m, a) for m, a, *_ in _patches()])
def test_perfbench_patch_target_resolves(module, attribute):
    owner, name = _owner(module, attribute)
    # the wrapper replaces the attribute on this owner, so it must live there
    assert callable(vars(owner).get(name)), f"{module}.{attribute}"


def _counting(calls, key, original):
    # a plain function, so that it binds as a method where it replaces one
    def counted(*args, **kwargs):
        calls[key] += 1
        return original(*args, **kwargs)

    return counted


def test_perfbench_patch_targets_are_called(tmp_path, monkeypatch):
    """One small run calls every target at least once. Elastic-net is listed
    before logit so that its cell fits the coefficient-ratio companion
    itself, and neither tuned learner has its hyperparameters set, so both
    are tuned."""
    panel, table, _ = generate_synthetic(
        SyntheticSpec(n_nodes=6, periods=6, base_rate=0.3, persistence=0.3, seed=2)
    )
    paths = save_synthetic(panel, table, tmp_path / "data")
    config = ExperimentConfig(
        events=paths["events"], registry=paths["registry"], covariates=paths["covariates"],
        first_period=3, last_period=6, lags=(1,), spec_classes=("combined",),
        learners=("elastic-net", "logit", "logitboost"), tune_folds=2,
        tune_grid=TuneGrid(enet_lambda=(0.1, 1.0), boost_rounds=(5, 10)),
        features=FeatureConfig(latent=LatentConfig(
            mmsbm_k=2, mmsbm_restarts=1, mmsbm_max_iter=20, latent_starts=1, latent_max_iter=20,
        )),
        bootstrap_replicates=50, output_dir=str(tmp_path / "run"),
    )
    calls = {}
    for module, attribute, *_ in _patches():
        owner, name = _owner(module, attribute)
        calls[(module, attribute)] = 0
        monkeypatch.setattr(owner, name, _counting(calls, (module, attribute), vars(owner)[name]))
    result = run_experiment(config, *load_run_inputs(config))
    write_outputs(result)
    assert not result.errored()
    assert [target for target, n in calls.items() if n == 0] == []
