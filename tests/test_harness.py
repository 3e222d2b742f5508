import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import typing
import weakref

import numpy as np
import pytest

import dyadcast
import dyadcast.harness as harness
from dyadcast import (
    BundleCache,
    CellResult,
    ExperimentConfig,
    FeatureConfig,
    GenerationError,
    LatentConfig,
    ParseError,
    SyntheticSpec,
    TrainingSet,
    TuneGrid,
    ValidationError,
    aggregate_rows,
    generate_synthetic,
    load_covariates,
    load_run_inputs,
    read_cells_csv,
    run_experiment,
    save_synthetic,
    write_outputs,
)
from dyadcast.cli import main
from dyadcast.codec import Bound
from dyadcast.harness import AGGREGATE_HEADER, CELLS_HEADER, RATIOS_HEADER
from dyadcast.learners import FIT_FUNCTIONS, LEARNERS, learner_keywords

from helpers import make_panel

FAST_LATENT = LatentConfig(
    walk_length=3, mmsbm_k=2, mmsbm_restarts=1, mmsbm_max_iter=30,
    mmsbm_tol=1e-5, latent_dim=2, latent_tau=0.1, latent_starts=1,
    latent_max_iter=30,
)
FAST_PARAMS = {
    "logit": {},
    "elastic-net": {"lam": 0.1},
    "logitboost": {"rounds": 5},
    "neural-net": {"hidden": 2, "decay": 0.5, "max_iter": 30, "restarts": 1},
}


def fast_config(**overrides):
    kwargs = dict(
        first_period=3, last_period=13, lags=(2,), depth=1, master_seed=5,
        learner_params=FAST_PARAMS, features=FeatureConfig(latent=FAST_LATENT),
        bootstrap_replicates=500,
    )
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


@pytest.fixture(scope="module")
def world():
    panel, table, _ = generate_synthetic(
        SyntheticSpec(n_nodes=8, periods=12, base_rate=0.15, persistence=0.3, seed=7)
    )
    return panel, table


@pytest.fixture(scope="module")
def full_run(world):
    panel, table = world
    return run_experiment(fast_config(), panel, table)


# ------------------------------------------------------------ experiment

def test_run_covers_every_cell_once(full_run):
    assert len(full_run.cells) == 11 * 1 * 3 * 4
    full_run.verify_complete()
    keys = [c.key() for c in full_run.cells]
    assert len(keys) == len(set(keys))


def test_ok_cells_carry_scores_and_finite_aucs(full_run):
    ok = [c for c in full_run.cells if c.status == "ok"]
    assert len(ok) == 9 * 3 * 4
    for c in ok:
        assert math.isfinite(c.auc_pr) and math.isfinite(c.auc_roc)
        assert c.scores is not None and len(c.scores) == 56
        assert 0 < c.n_positive < 56
        assert c.reason == ""


def test_cell_scores_are_the_models_read_only_probabilities(world, full_run):
    panel, table = world
    cfg = fast_config()
    for kind in LEARNERS:
        key = (6, 2, "covariates-only", kind)
        test = harness.build_design(panel, 6, "covariates-only", cfg.features, covariates=table)
        want = full_run.models[key].predict_proba(test.X, test.feature_names)
        scores = full_run.cell(*key).scores
        assert scores.dtype == np.float64 and not scores.flags.writeable
        assert scores.tobytes() == want.tobytes()
    cell = full_run.cell(*key)
    assert cell == dataclasses.replace(cell, scores=None)


def test_blanket_skips(full_run):
    early = full_run.cell(3, 2, "combined", "logit")
    assert early.status == "skip"
    assert "insufficient history" in early.reason
    late = full_run.cell(13, 2, "combined", "logit")
    assert late.status == "skip"
    assert "beyond data range" in late.reason
    assert not full_run.errored()


def test_ratios_recorded_for_elastic_net(full_run):
    assert sorted(full_run.ratios) == [
        (2, "combined"), (2, "covariates-only"), (2, "endogenous-only"),
    ]
    rows = full_run.ratios[(2, "endogenous-only")].with_smoothing()
    periods = {r[0] for r in rows}
    assert periods == set(range(4, 13))
    assert rows == sorted(rows, key=lambda r: (r[1], r[0]))


def test_models_kept_for_fitted_cells(full_run):
    assert (4, 2, "combined", "logit") in full_run.models
    assert len(full_run.models) == 9 * 3 * 4


def test_cell_results_are_learner_independent(world):
    panel, table = world
    solo = run_experiment(fast_config(learners=("logit",)), panel, table)
    full = run_experiment(fast_config(), panel, table)
    for cell in solo.cells:
        twin = full.cell(*cell.key())
        assert cell.status == twin.status
        assert np.array_equal(cell.scores, twin.scores)
        if cell.status == "ok":
            assert cell.auc_pr == twin.auc_pr and cell.auc_roc == twin.auc_roc


def test_single_class_training_skipped():
    panel = make_panel(
        [("a", "b", 3), ("b", "c", 3)], {n: (1, 3) for n in "abc"}
    )
    cfg = fast_config(
        first_period=3, last_period=3, lags=(1,),
        spec_classes=("endogenous-only",), learners=("logit",),
    )
    res = run_experiment(cfg, panel)
    cell = res.cells[0]
    assert cell.status == "skip"
    assert "single-class training labels" in cell.reason


def test_zero_positive_test_period_keeps_scores():
    panel = make_panel(
        [("a", "b", 1), ("b", "c", 2), ("c", "a", 2)], {n: (1, 3) for n in "abc"}
    )
    cfg = fast_config(
        first_period=3, last_period=3, lags=(1,),
        spec_classes=("endogenous-only",), learners=("logit",),
    )
    res = run_experiment(cfg, panel)
    cell = res.cells[0]
    assert cell.status == "skip"
    assert "positives" in cell.reason
    assert cell.scores is not None and len(cell.scores) == 6
    assert math.isnan(cell.auc_pr)


def test_missing_covariate_periods_become_error_cells(world):
    panel, table = world
    late_only = type(table).from_entries(
        {k: v for k, v in table.entries.items() if k[0] >= 3}
    )
    cfg = fast_config(
        first_period=3, last_period=4, spec_classes=("covariates-only",),
        learners=("logit", "logitboost"),
    )
    res = run_experiment(cfg, panel, late_only)
    errored = [c for c in res.cells if c.status == "error"]
    # period 4 needs covariates at periods 2 and 3; period 2 is gone
    assert {c.key() for c in errored} == {
        (4, 2, "covariates-only", "logit"),
        (4, 2, "covariates-only", "logitboost"),
    }
    assert all("missing" in c.reason for c in errored)
    assert res.errored()
    res.verify_complete()


def test_covariate_specs_require_table(world):
    panel, _ = world
    with pytest.raises(ValidationError, match="covariate"):
        run_experiment(fast_config(), panel)


def test_run_deterministic_byte_identical(world, tmp_path):
    panel, table = world
    cfg = fast_config(
        first_period=5, last_period=7, learners=("logit", "elastic-net")
    )
    dirs = []
    for k in (1, 2):
        res = run_experiment(cfg, panel, table, cache=BundleCache())
        out = tmp_path / f"run{k}"
        write_outputs(res, out)
        dirs.append(out)
    for name in ("cells.csv", "aggregate.csv", "ratios.csv", "config.json"):
        a = (dirs[0] / name).read_bytes()
        b = (dirs[1] / name).read_bytes()
        assert a == b, name


def test_elastic_net_ratios_reuse_the_fitted_logit_cell(world, tmp_path, monkeypatch):
    import dyadcast.harness as hz

    panel, table = world
    cfg = fast_config(first_period=5, last_period=7, learners=("elastic-net",))
    write_outputs(run_experiment(cfg, panel, table), tmp_path / "alone")

    def refit(*args, **kwargs):
        raise AssertionError("the logit cell of the group was fitted already")

    monkeypatch.setattr(hz, "fit_logit", refit)
    both = dataclasses.replace(cfg, learners=("logit", "elastic-net"))
    write_outputs(run_experiment(both, panel, table), tmp_path / "both")
    alone, joint = ((tmp_path / d / "ratios.csv").read_bytes() for d in ("alone", "both"))
    assert alone == joint


def test_one_training_set_per_period_lag_and_spec(world, monkeypatch):
    panel, table = world
    builds = []
    original = TrainingSet.build
    monkeypatch.setattr(
        TrainingSet, "build", staticmethod(lambda *a: builds.append(a) or original(*a))
    )
    result = run_experiment(fast_config(first_period=5, last_period=7), panel, table)
    fitted = {key[:3] for key in result.models}
    assert len(fitted) == 3 * 3
    assert len(builds) == len(fitted)


@pytest.mark.parametrize(
    "specs", [("endogenous-only",), ("endogenous-only", "covariates-only"), ("combined",)]
)
def test_each_design_is_dropped_after_its_last_reader(world, monkeypatch, specs):
    """A cell reads the designs of its period and of the depth periods
    before it, so a run holds at most depth + 1 single-block designs per
    block at once, however many periods and lags it covers. A combined
    design is joined from them when it is read and held by no one after."""
    reads = {
        "endogenous-only": {"network"},
        "covariates-only": {"covariates"},
        "combined": {"network", "covariates"},
    }
    blocks = len(set().union(*(reads[spec] for spec in specs)))
    panel, table = world
    built, held = [], []
    build = harness.build_design

    def tracked(*args, **kwargs):
        design = build(*args, **kwargs)
        built.append(weakref.ref(design))
        held.append(sum(ref() is not None for ref in built))
        return design

    monkeypatch.setattr(harness, "build_design", tracked)
    cfg = fast_config(lags=(1, 2), depth=2, spec_classes=specs, learners=("logit",))
    run_experiment(cfg, panel, table)
    assert len(built) > 3 * (2 + 1) * blocks
    assert max(held) <= (2 + 1) * blocks


def test_each_block_is_built_once_per_period_and_lag(world, monkeypatch):
    """Three spec classes over two lags: the window, its latent bundle, the
    network block and the covariate block of each (period, lag) are built
    once, and the combined design is the join of the other two. The harness
    aggregates each lag window; a design aggregates only its own period's
    one-period window, for its labels."""
    import dyadcast.design as dz

    panel, table = world
    calls: dict = {}

    def count(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls.setdefault(f"{owner.__name__}.{name}", []).append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    for owner, name in [
        (dz, "feature_block"), (dz, "_covariate_block"), (dz, "aggregate_window"),
        (harness, "aggregate_window"), (BundleCache, "get"), (harness, "build_design"),
    ]:
        count(owner, name)
    cfg = fast_config(first_period=5, last_period=7, lags=(1, 2), learners=("logit",))
    result = run_experiment(cfg, panel, table)
    assert {c.status for c in result.cells} == {"ok"}

    builds = calls.pop("dyadcast.harness.build_design")
    # (period, lag) of each network block, read off the window it was given
    pairs = sorted((t, t - net.window[0]) for _, t, _, _, net, *_ in builds if net is not None)
    assert len(pairs) == len(set(pairs)) == 2 * (3 + 1)
    assert sorted(args[1:3] for args in builds) == sorted(
        (t, spec) for t, _ in pairs for spec in ("endogenous-only", "covariates-only")
    )
    windows = calls.pop("dyadcast.harness.aggregate_window")
    assert sorted((end + 1, end + 1 - start) for _, start, end in windows) == pairs
    labels = calls.pop("dyadcast.design.aggregate_window")
    assert sorted(args[1:] for args in labels) == sorted((t, t) for _, t, *_ in builds)
    assert {name: len(args) for name, args in calls.items()} == {
        "dyadcast.design.feature_block": len(pairs),
        "dyadcast.design._covariate_block": len(pairs),
        "BundleCache.get": len(pairs),
    }


def test_run_outputs_identical_across_hash_seeds(tmp_path):
    """Two `dyadcast run` processes with different PYTHONHASHSEED values
    write the same bytes: no output depends on set or dict order."""
    panel, table, _ = generate_synthetic(
        SyntheticSpec(
            n_nodes=8, periods=6, n_blocks=2, block_affinity=0.6,
            persistence=0.35, base_rate=0.12, seed=0,
        )
    )
    paths = save_synthetic(panel, table, tmp_path / "data")
    src = str(Path(dyadcast.__file__).resolve().parents[1])
    outputs = []
    for hash_seed in ("1", "2"):
        cfg = ExperimentConfig(
            events=paths["events"], registry=paths["registry"],
            first_period=4, last_period=6, lags=(1,),
            spec_classes=("endogenous-only",), learners=("logit", "elastic-net"),
            learner_params={"elastic-net": {"lam": 0.01}},
            features=FeatureConfig(latent=LatentConfig(
                mmsbm_restarts=1, mmsbm_max_iter=20, latent_starts=1, latent_max_iter=20,
            )),
            output_dir=str(tmp_path / f"run{hash_seed}"),
        )
        cfg_path = tmp_path / f"config{hash_seed}.json"
        cfg_path.write_text(json.dumps(cfg.to_json()))
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "dyadcast.cli", "run", "--config", str(cfg_path)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(Path(cfg.output_dir))
    for name in ("cells.csv", "aggregate.csv", "ratios.csv"):
        assert (outputs[0] / name).read_bytes() == (outputs[1] / name).read_bytes(), name


def test_covariates_only_run_never_imports_numpy_ma(tmp_path):
    """np.unique and np.quantile import numpy.ma on first use, a cost paid
    in every process; a covariates-only `dyadcast run` reaches neither."""
    panel, table, _ = generate_synthetic(SyntheticSpec(
        n_nodes=8, periods=5, base_rate=0.15, covariate_effects={"contiguity": 1.0}, seed=0,
    ))
    paths = save_synthetic(panel, table, tmp_path / "data")
    cfg = ExperimentConfig(
        events=paths["events"], registry=paths["registry"], covariates=paths["covariates"],
        first_period=4, last_period=5, lags=(1,), spec_classes=("covariates-only",),
        learners=("logit", "elastic-net"), learner_params={"elastic-net": {"lam": 0.01}},
        output_dir=str(tmp_path / "run"),
    )
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg.to_json()))
    src = str(Path(dyadcast.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = (
        "import sys\nfrom dyadcast.cli import main\n"
        f"code = main(['run', '--config', {str(cfg_path)!r}])\n"
        "print(code, 'numpy.ma' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False"
    assert "4 cells evaluated, 0 skipped, 0 errored" in proc.stdout


# -------------------------------------------------------------- aggregate

def test_aggregate_hand_arithmetic():
    cfg = ExperimentConfig(
        first_period=5, last_period=7, lags=(1,),
        spec_classes=("endogenous-only",), learners=("logit", "elastic-net"),
        bootstrap_replicates=200,
    )
    cells = [
        CellResult(5, 1, "endogenous-only", "logit", "ok", auc_pr=0.5, auc_roc=0.6),
        CellResult(6, 1, "endogenous-only", "logit", "ok", auc_pr=0.7, auc_roc=0.8),
        CellResult(7, 1, "endogenous-only", "logit", "skip", reason="x"),
        CellResult(5, 1, "endogenous-only", "elastic-net", "ok", auc_pr=0.4, auc_roc=0.9),
        CellResult(6, 1, "endogenous-only", "elastic-net", "error", reason="y"),
        CellResult(7, 1, "endogenous-only", "elastic-net", "skip", reason="z"),
    ]
    rows = {(r.lag, r.spec_class, r.learner): r for r in aggregate_rows(cfg, cells)}
    logit = rows[(1, "endogenous-only", "logit")]
    assert logit.n_periods == 2
    assert logit.mean_auc_pr == pytest.approx(0.6, abs=1e-15)
    assert logit.mean_auc_roc == pytest.approx(0.7, abs=1e-15)
    assert 0.5 <= logit.pr_lo <= logit.pr_hi <= 0.7
    enet = rows[(1, "endogenous-only", "elastic-net")]
    assert enet.n_periods == 1
    assert enet.mean_auc_pr == 0.4
    assert math.isnan(enet.pr_lo) and math.isnan(enet.roc_hi)


def test_aggregate_group_with_no_ok_cells_is_na():
    cfg = ExperimentConfig(
        first_period=5, last_period=5, lags=(1,),
        spec_classes=("endogenous-only",), learners=("logit",),
    )
    cells = [CellResult(5, 1, "endogenous-only", "logit", "skip", reason="x")]
    (row,) = aggregate_rows(cfg, cells)
    assert row.n_periods == 0
    assert math.isnan(row.mean_auc_pr) and math.isnan(row.mean_auc_roc)


# ------------------------------------------------------------ csv formats

def test_output_files_and_headers(full_run, tmp_path):
    paths = write_outputs(full_run, tmp_path / "out")
    assert Path(paths["cells"]).read_text().splitlines()[0] == ",".join(CELLS_HEADER)
    assert Path(paths["aggregate"]).read_text().splitlines()[0] == ",".join(AGGREGATE_HEADER)
    assert Path(paths["ratios"]).read_text().splitlines()[0] == ",".join(RATIOS_HEADER)
    cfg = json.loads(Path(paths["config"]).read_text())
    assert cfg == full_run.config.to_json()


def test_cells_round_trip_preserves_summaries(full_run, tmp_path):
    paths = write_outputs(full_run, tmp_path / "out")
    cells = read_cells_csv(paths["cells"])
    assert len(cells) == len(full_run.cells)
    by_key = {c.key(): c for c in cells}
    for orig in full_run.cells:
        back = by_key[orig.key()]
        assert back.status == orig.status
        if orig.status == "ok":
            assert back.auc_pr == orig.auc_pr and back.auc_roc == orig.auc_roc
        assert back.reason == orig.reason
    # re-summarizing the read-back cells reproduces aggregate.csv exactly
    rows = aggregate_rows(full_run.config, cells)
    import dyadcast.harness as hz

    hz.write_aggregate_csv(tmp_path / "agg2.csv", rows)
    assert (tmp_path / "agg2.csv").read_bytes() == (tmp_path / "out" / "aggregate.csv").read_bytes()


def test_undefined_values_are_written_as_na(tmp_path):
    from dyadcast.evaluation import RatioSeries
    from dyadcast.harness import write_aggregate_csv, write_cells_csv, write_ratios_csv

    cfg = ExperimentConfig(
        first_period=5, last_period=5, lags=(1,),
        spec_classes=("endogenous-only",), learners=("logit",),
    )
    cells = [CellResult(5, 1, "endogenous-only", "logit", "skip", reason="x")]
    write_cells_csv(tmp_path / "cells.csv", cells)
    assert (tmp_path / "cells.csv").read_text().splitlines()[1] == "5,1,endogenous-only,logit,NA,NA,x,"
    write_aggregate_csv(tmp_path / "aggregate.csv", aggregate_rows(cfg, cells))
    assert (tmp_path / "aggregate.csv").read_text().splitlines()[1] == (
        "1,endogenous-only,logit,NA,NA,NA,NA,NA,NA"
    )
    series = RatioSeries(rows=[])
    series.add(5, [("memory", float("nan"), None)])
    write_ratios_csv(tmp_path / "ratios.csv", {(1, "endogenous-only"): series})
    assert (tmp_path / "ratios.csv").read_text().splitlines()[1] == (
        "1,endogenous-only,5,memory,NA,NA,NA"
    )


def test_read_cells_rejects_wrong_header(tmp_path):
    p = tmp_path / "cells.csv"
    p.write_text("period,lag\n1,2\n")
    with pytest.raises(ParseError, match="header"):
        read_cells_csv(p)


CELLS_LINE_1 = ",".join(CELLS_HEADER) + "\n"
BAD_CELL_ROWS = [
    ("1,2,combined,logit,0.5,abc,,\n", "cells: line 2: auc_roc 'abc' is not a number"),
    ("1,2,combined\n", "cells: line 2: expected 8 fields, got 3"),
    (" 1 , 2 , combined , logit , 0.5 , abc , , \n", "cells: line 2: auc_roc 'abc' is not a number"),
    (" 1 , 2 , combined \n", "cells: line 2: expected 8 fields, got 3"),
]
BAD_CELL_IDS = ["bad-number", "short-row", "padded-bad-number", "padded-short-row"]


def test_read_cells_reads_na_as_nan(tmp_path):
    p = tmp_path / "cells.csv"
    p.write_text(CELLS_LINE_1 + "3,2,combined,logit,NA,0.25,too few events,\n")
    (cell,) = read_cells_csv(p)
    assert (cell.period, cell.lag, cell.status, cell.reason) == (3, 2, "skip", "too few events")
    assert math.isnan(cell.auc_pr) and cell.auc_roc == 0.25


def test_read_cells_ignores_padding_around_fields(tmp_path):
    p = tmp_path / "cells.csv"
    p.write_text(
        CELLS_LINE_1
        + " 3 , 2 , combined , logit , NA , 0.25 , too few events , \n"
        + "\t4\t,\t2\t,\tcombined\t,\tlogit\t,\t0.5\t,\t0.75\t,\t,\t\n"
    )
    skip, ok = read_cells_csv(p)
    assert (skip.period, skip.lag, skip.spec_class, skip.learner) == (3, 2, "combined", "logit")
    assert (skip.status, skip.reason) == ("skip", "too few events")
    assert math.isnan(skip.auc_pr) and skip.auc_roc == 0.25
    assert (ok.period, ok.lag, ok.spec_class, ok.learner, ok.status) == (
        4, 2, "combined", "logit", "ok"
    )
    assert (ok.auc_pr, ok.auc_roc, ok.reason) == (0.5, 0.75, "")


@pytest.mark.parametrize("row,message", BAD_CELL_ROWS, ids=BAD_CELL_IDS)
def test_read_cells_rejects_a_malformed_row(tmp_path, row, message):
    p = tmp_path / "cells.csv"
    p.write_text(CELLS_LINE_1 + row)
    with pytest.raises(ParseError, match=re.escape(message)):
        read_cells_csv(p)


def test_read_cells_counts_blank_lines_in_its_line_numbers(tmp_path):
    p = tmp_path / "cells.csv"
    p.write_text(CELLS_LINE_1 + "\n1,2,combined,logit,0.5,0.75,,\n \n1,3,combined,logit,x,,,\n")
    with pytest.raises(ParseError) as info:
        read_cells_csv(p)
    assert str(info.value) == "cells: line 5: auc_pr 'x' is not a number"


@pytest.mark.parametrize("row,message", BAD_CELL_ROWS, ids=BAD_CELL_IDS)
def test_cli_summarize_malformed_cells_exit_2(tmp_path, capsys, row, message):
    (tmp_path / "config.json").write_text(json.dumps(ExperimentConfig().to_json()))
    (tmp_path / "cells.csv").write_text(CELLS_LINE_1 + row)
    assert main(["summarize", "--in", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == "" and not (tmp_path / "aggregate.csv").exists()


def test_dump_models_writes_model_json(world, tmp_path):
    panel, table = world
    cfg = fast_config(
        first_period=5, last_period=5, spec_classes=("endogenous-only",),
        learners=("logit",), dump_models=True,
    )
    res = run_experiment(cfg, panel, table)
    paths = write_outputs(res, tmp_path / "out")
    model_file = tmp_path / "out" / "models" / "5-2-endogenous-only-logit.json"
    assert model_file.exists()
    from dyadcast import FittedModel

    model = FittedModel.from_json(json.loads(model_file.read_text()))
    assert model.kind == "logit"


def test_dumped_models_are_strict_json(world, tmp_path):
    """A one-point tuning grid cross-validates no candidate: its score is
    written as null, never as NaN, which no RFC 8259 parser reads."""
    panel, table = world
    cfg = fast_config(
        first_period=5, last_period=5, spec_classes=("endogenous-only",),
        learners=("elastic-net",), learner_params={},
        tune_grid=TuneGrid(enet_lambda=(0.1,)), dump_models=True,
    )
    write_outputs(run_experiment(cfg, panel, table), tmp_path)
    (path,) = (tmp_path / "models").iterdir()

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    model = json.loads(path.read_text(), parse_constant=refuse)
    assert model["diagnostics"]["tuning"]["score"] is None
    assert model["params"]["lam"] == 0.1


# ---------------------------------------------------------------- config

def test_config_json_round_trip():
    cfg = fast_config(
        events="e.csv", registry="r.csv", covariates="c.csv",
        lags=(1, 3), dump_models=True, output_dir="somewhere",
    )
    back = ExperimentConfig.from_json(json.loads(json.dumps(cfg.to_json())))
    assert back == cfg


@pytest.mark.parametrize(
    "patch",
    [
        {"first_period": 5, "last_period": 4},
        {"lags": ()},
        {"lags": (0,)},
        {"lags": (2, 2)},
        {"spec_classes": ("fancy",)},
        {"learners": ("forest",)},
        {"learners": ()},
        {"learner_params": {"forest": {}}},
        {"depth": 0},
        {"tune_folds": 1},
        {"bootstrap_replicates": 0},
        {"bootstrap_level": 1.0},
        {"lags": ("a",)},
        {"tune_grid": TuneGrid(boost_rounds=(-1, 5))},
        {"tune_grid": TuneGrid(nn_hidden=())},
        {"features": FeatureConfig(covariate_offset=0)},
        {"features": FeatureConfig(max_missing=1.5)},
        {"features": FeatureConfig(latent=LatentConfig(walk_length=0))},
        {"learner_params": {"logitboost": {"rounds": -1}}},
    ],
)
def test_config_validation(patch):
    cfg = fast_config(**patch)
    with pytest.raises(ValidationError):
        cfg.validate()


@pytest.mark.parametrize(
    "bad,message",
    [
        ({"features": {"latent": {"latent_tau": math.inf}}},
         "features.latent.latent_tau must be finite, got inf"),
        ({"tune_grid": {"nn_decay": [math.inf]}}, "tune_grid.nn_decay[0] must be finite, got inf"),
        ({"tune_grid": {"enet_lambda": [0.1, math.nan]}},
         "tune_grid.enet_lambda[1] must be finite, got nan"),
        ({"learner_params": {"neural-net": {"grad_tol": math.inf}}},
         "learner_params.neural-net.grad_tol must be finite, got inf"),
        ({"features": {"max_missing": -math.inf}}, "features.max_missing must be finite, got -inf"),
    ],
)
def test_config_from_json_rejects_non_finite_numbers(bad, message):
    """NaN and +-Infinity, which Python's json module reads, are no value
    of a number field, whatever its bounds."""
    with pytest.raises(ValidationError, match=re.escape(message)):
        ExperimentConfig.from_json(json.loads(json.dumps(bad)))


def test_config_from_json_rejects_unknown_keys():
    with pytest.raises(ValidationError, match="unknown"):
        ExperimentConfig.from_json({"first_period": 1, "frobnicate": True})


def test_config_json_file_lists_every_field():
    """config.json spells out every config field, nested ones included,
    with the defaults the README documents."""
    doc = ExperimentConfig().to_json()
    assert set(doc) == {
        "events", "registry", "covariates", "first_period", "last_period",
        "lags", "spec_classes", "learners", "depth", "master_seed",
        "tune_folds", "tune_grid", "learner_params", "features",
        "bootstrap_replicates", "bootstrap_level", "output_dir", "dump_models",
    }
    assert doc["tune_grid"] == {
        "enet_lambda": [0.001, 0.01, 0.1, 1.0, 10.0],
        "nn_hidden": [2, 4, 8],
        "nn_decay": [0.01, 0.1, 1.0],
        "boost_rounds": [10, 25, 50, 100, 200],
    }
    assert doc["features"] == {
        "exclude_focal_flow": False,
        "covariate_offset": 1,
        "max_missing": 0.5,
        "latent": {
            "walk_length": 4, "mmsbm_k": 4, "mmsbm_restarts": 5,
            "mmsbm_max_iter": 300, "mmsbm_tol": 1e-07, "latent_dim": 2,
            "latent_tau": 0.1, "latent_starts": 3, "latent_max_iter": 500,
        },
    }


def test_load_run_inputs_requires_events():
    with pytest.raises(ValidationError, match="events"):
        load_run_inputs(ExperimentConfig())


def test_endogenous_only_run_never_reads_the_covariate_file(
    cli_world, tmp_path, capsys, monkeypatch
):
    paths, _ = cli_world
    bad = tmp_path / "covariates.csv"
    bad.write_text("year,i,j,name,value\n1,n00,n01,CINC-ratio,nan\n")
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cli_config_json(
        paths, tmp_path / "run", covariates=str(bad), spec_classes=("endogenous-only",)
    )))
    assert main(["run", "--config", str(cfg_path)]) == 0
    capsys.readouterr()

    reads = []
    monkeypatch.setattr(harness, "load_covariates", lambda *a: reads.append(a))
    config = harness.load_config(cfg_path)
    _, covariates = load_run_inputs(config)
    assert covariates is None and reads == []
    config.spec_classes = ("endogenous-only", "combined")
    load_run_inputs(config)
    assert reads == [(str(bad),)]


# ------------------------------------------------------------------- cli

@pytest.fixture(scope="module")
def cli_world(world, tmp_path_factory):
    panel, table = world
    data_dir = tmp_path_factory.mktemp("data")
    return save_synthetic(panel, table, data_dir), data_dir


def cli_config_json(paths, out_dir, **overrides):
    cfg = fast_config(
        events=paths["events"], registry=paths["registry"],
        covariates=paths["covariates"], first_period=5, last_period=7,
        learners=("logit", "elastic-net"), output_dir=str(out_dir),
    )
    for k, v in overrides.items():
        setattr(cfg, k, v)
    return cfg.to_json()


def test_cli_synth_run_summarize(cli_world, tmp_path, capsys):
    paths, _ = cli_world
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(SyntheticSpec(n_nodes=5, periods=4, seed=3).to_json()))
    assert main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "synth")]) == 0
    assert (tmp_path / "synth" / "events.csv").exists()

    run_dir = tmp_path / "run"
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cli_config_json(paths, run_dir)))
    assert main(["run", "--config", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert "cells evaluated" in out and "auc_pr" in out
    original = (run_dir / "aggregate.csv").read_bytes()

    (run_dir / "aggregate.csv").unlink()
    assert main(["summarize", "--in", str(run_dir)]) == 0
    assert (run_dir / "aggregate.csv").read_bytes() == original


def test_cli_run_reports_cell_errors(cli_world, tmp_path, capsys):
    paths, data_dir = cli_world
    # drop early covariate periods so one computable period cannot build
    lines = Path(paths["covariates"]).read_text().splitlines()
    kept = [lines[0]] + [ln for ln in lines[1:] if int(ln.split(",")[0]) >= 3]
    trimmed = data_dir / "covariates-late.csv"
    trimmed.write_text("\n".join(kept) + "\n")
    reason = "covariate 'joint-democracy' missing for 100% of dyads at period 2"

    # a combined cell fails with its covariate block's reason, and the
    # endogenous-only cell beside it still scores
    for specs in (("covariates-only",), ("endogenous-only", "covariates-only", "combined")):
        run_dir = tmp_path / "-".join(specs)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(
            json.dumps(
                cli_config_json(
                    paths, run_dir,
                    covariates=str(trimmed), first_period=4, last_period=4,
                    spec_classes=specs, learners=("logit",),
                )
            )
        )
        assert main(["run", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        # the README's `error {period}-{lag}-{spec}-{learner}: reason`
        assert err == "".join(
            f"error 4-2-{spec}-logit: {reason}\n" for spec in specs if spec != "endogenous-only"
        )
        cells = read_cells_csv(run_dir / "cells.csv")
        assert {c.spec_class: c.status for c in cells} == {
            spec: "ok" if spec == "endogenous-only" else "error" for spec in specs
        }


def test_cli_run_rejects_a_non_finite_config_value(cli_world, tmp_path, capsys):
    paths, _ = cli_world
    cfg = cli_config_json(paths, tmp_path / "run")
    cfg["features"]["latent"]["latent_tau"] = math.inf
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    assert "Infinity" in cfg_path.read_text()
    assert main(["run", "--config", str(cfg_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: features.latent.latent_tau must be finite, got inf\n"
    assert captured.out == "" and not (tmp_path / "run").exists()


def test_cli_run_aggregates_once(cli_world, tmp_path, capsys, monkeypatch):
    """The printed table reuses the rows written to aggregate.csv."""
    import dyadcast.harness as hz

    paths, _ = cli_world
    calls = []
    original = hz.aggregate_rows
    monkeypatch.setattr(hz, "aggregate_rows", lambda *a: calls.append(a) or original(*a))
    run_dir = tmp_path / "run"
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cli_config_json(paths, run_dir)))
    assert main(["run", "--config", str(cfg_path)]) == 0
    assert len(calls) == 1
    run_table = capsys.readouterr().out.splitlines()[2:-1]
    assert main(["summarize", "--in", str(run_dir)]) == 0
    assert run_table == capsys.readouterr().out.splitlines()


def test_cli_run_tallies_fits_that_stopped_short(cli_world, tmp_path, capsys):
    """One-step elastic nets and neural nets stop at their caps and are
    counted; logitboost's cap is every round fitted and is not; tuned
    rounds that end on the grid's edge are counted apart."""
    paths, _ = cli_world
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cli_config_json(
        paths, tmp_path / "run", spec_classes=("covariates-only",),
        learners=("logit", "elastic-net", "logitboost", "neural-net"),
        learner_params={
            "elastic-net": {"lam": 0.1, "max_outer": 1},
            "neural-net": {"hidden": 2, "decay": 0.5, "max_iter": 1, "restarts": 1},
        },
        tune_grid=TuneGrid(boost_rounds=(1, 2)), tune_folds=2,
    )))
    assert main(["run", "--config", str(cfg_path)]) == 0
    assert capsys.readouterr().out.splitlines()[:2] == [
        "12 cells evaluated, 0 skipped, 0 errored",
        "6 fits stopped at a cap or step, 0 capped, 2 tuned to a grid boundary",
    ]
    cfg_path.write_text(json.dumps(cli_config_json(paths, tmp_path / "pinned")))
    assert main(["run", "--config", str(cfg_path)]) == 0
    assert capsys.readouterr().out.splitlines()[1] == (
        "0 fits stopped at a cap or step, 0 capped, 0 tuned to a grid boundary"
    )


@pytest.mark.parametrize(
    "bad",
    [
        {"features": {"bogus": 1}},
        {"features": {"latent": {"bogus": 1}}},
        {"tune_grid": {"bogus": [1]}},
    ],
)
def test_cli_unknown_nested_keys_exit_2(tmp_path, capsys, bad):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown") and "bogus" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "bad,message",
    [
        ({"lags": 5}, "lags must be a list, got 5"),
        ({"features": {"latent": {"mmsbm_k": "4"}}},
         "features.latent.mmsbm_k must be an integer, got '4'"),
        ({"depth": True}, "depth must be an integer, got True"),
        ({"bootstrap_level": "0.9"}, "bootstrap_level must be a number, got '0.9'"),
        ({"tune_grid": {"boost_rounds": 10}}, "tune_grid.boost_rounds must be a list, got 10"),
        ({"events": 3}, "events must be a string, got 3"),
        ({"learner_params": []}, "learner_params must be an object, got []"),
        ({"lags": ["a"]}, "lags[0] must be an integer, got 'a'"),
        ({"tune_grid": {"boost_rounds": [-1, 5]}},
         "tune_grid.boost_rounds[0] must be >= 0, got -1"),
        ({"tune_grid": {"enet_lambda": [-1.0, 0.1]}},
         "tune_grid.enet_lambda[0] must be >= 0, got -1.0"),
        ({"tune_grid": {"nn_hidden": [0, 2]}}, "tune_grid.nn_hidden[0] must be >= 1, got 0"),
        ({"tune_grid": {"nn_hidden": []}}, "tune_grid.nn_hidden must have >= 1 items, got 0"),
        ({"features": {"latent": {"mmsbm_k": 0}}}, "features.latent.mmsbm_k must be >= 1, got 0"),
        ({"features": {"latent": {"walk_length": 0}}},
         "features.latent.walk_length must be >= 1, got 0"),
        ({"features": {"latent": {"mmsbm_restarts": 0}}},
         "features.latent.mmsbm_restarts must be >= 1, got 0"),
        ({"features": {"latent": {"latent_starts": 0}}},
         "features.latent.latent_starts must be >= 1, got 0"),
        ({"features": {"covariate_offset": -1}}, "features.covariate_offset must be >= 1, got -1"),
        ({"features": {"covariate_offset": 0}}, "features.covariate_offset must be >= 1, got 0"),
        ({"features": {"max_missing": 1.5}}, "features.max_missing must be in [0, 1], got 1.5"),
        ({"spec_classes": ["fancy"]},
         "spec_classes[0] must be one of ['endogenous-only', 'covariates-only', 'combined'], "
         "got 'fancy'"),
    ],
)
def test_cli_mistyped_config_values_exit_2(tmp_path, capsys, bad, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert main(["run", "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_config_value_types_follow_the_fields():
    """An integer will do for a float field, null for an optional one."""
    cfg = ExperimentConfig.from_json({"events": None, "bootstrap_level": 0.5,
                                      "features": {"max_missing": 1}})
    assert cfg.features.max_missing == 1 and cfg.events is None
    assert ExperimentConfig.from_json({"lags": [2]}).lags == (2,)


@pytest.mark.parametrize(
    "params,message",
    [
        ({"logitboost": {"round": 5}},
         "unknown learner_params.logitboost keys: ['round']; accepted: ['rounds']"),
        ({"logitboost": {"rounds": "5"}},
         "learner_params.logitboost.rounds must be an integer, got '5'"),
        ({"neural-net": {"hidden": 2.5}},
         "learner_params.neural-net.hidden must be an integer, got 2.5"),
        ({"elastic-net": {"lam": True}},
         "learner_params.elastic-net.lam must be a number, got True"),
        ({"logit": {"rounds": 5}}, "unknown learner_params.logit keys: ['rounds']; accepted: []"),
        ({"elastic-net": 0.01}, "learner_params.elastic-net must be an object, got 0.01"),
        ({"logitboost": {"rounds": -1}}, "learner_params.logitboost.rounds must be >= 0, got -1"),
        ({"neural-net": {"hidden": 0, "decay": 0.1}},
         "learner_params.neural-net.hidden must be >= 1, got 0"),
    ],
)
def test_cli_bad_learner_params_exit_2_before_reading_data(
    cli_world, tmp_path, capsys, monkeypatch, params, message
):
    import dyadcast.harness as hz

    paths, _ = cli_world
    reads = []
    monkeypatch.setattr(hz, "load_events", lambda *a: reads.append(a))
    monkeypatch.setattr(hz, "load_covariates", lambda *a: reads.append(a))
    cfg_path = tmp_path / "config.json"
    doc = cli_config_json(paths, tmp_path / "run")
    doc["learner_params"] = params
    cfg_path.write_text(json.dumps(doc))
    assert main(["run", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert reads == []


@pytest.mark.parametrize(
    "key,values",
    [("lags", [1, 1]), ("spec_classes", ["combined", "combined"]), ("learners", ["logit", "logit"])],
)
def test_cli_duplicate_list_entries_exit_2_before_reading_data(tmp_path, capsys, key, values):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"events": str(tmp_path / "absent.csv"), key: values}))
    assert main(["run", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err == f"error: duplicate {key} in {tuple(values)}\n"


def test_learner_params_accept_the_fit_keywords():
    """The accepted keys are the keywords of each fit function."""
    assert {kind: sorted(learner_keywords(kind)) for kind in LEARNERS} == {
        "logit": [],
        "elastic-net": ["lam", "max_outer"],
        "logitboost": ["rounds"],
        "neural-net": ["decay", "grad_tol", "hidden", "max_iter", "restarts"],
    }
    fast_config(learner_params={"logitboost": {"rounds": None},
                                "neural-net": {"decay": 1, "grad_tol": 1e-4}}).validate()


# ---------------------------------------------------------- declared bounds

def bound_sites(tp, path=()):
    """(path, Bound, bounded type) for every Bound declared in tp, through
    X | None, nested dataclass fields and tuple elements."""
    if typing.get_origin(tp) is typing.Annotated:
        tp, *marks = typing.get_args(tp)
        yield from ((path, m, tp) for m in marks if isinstance(m, Bound))
    args = typing.get_args(tp)
    if type(None) in args:
        (tp,) = (a for a in args if a is not type(None))
        yield from bound_sites(tp, path)
    elif dataclasses.is_dataclass(tp):
        hints = typing.get_type_hints(tp, include_extras=True)
        for f in dataclasses.fields(tp):
            yield from bound_sites(hints[f.name], path + (f.name,))
    elif typing.get_origin(tp) is tuple:
        for k, arg in enumerate(args[:1] if args[-1] is Ellipsis else args):
            yield from bound_sites(arg, path + (k,))


def edge_and_past(bound, tp, current):
    """(accepted, rejected) at each finite end of bound: the last value
    inside it and the first one past it. On a tuple the bound counts items,
    made by repeating the current first item."""
    for end, inward in ((bound.lo, 1), (bound.hi, -1)):
        if math.isinf(end):
            continue
        if tp is float:
            inside = math.nextafter(end, inward * math.inf)
            outside = math.nextafter(end, -inward * math.inf)
            end = float(end)
        else:
            inside, outside = end + inward, end - inward
        pair = (inside, end) if bound.open else (end, outside)
        if typing.get_origin(tp) is tuple:
            pair = tuple(tuple(current[:1]) * n for n in pair)
        yield pair


def put(obj, path, value):
    """obj with the value at path (field names and tuple positions) replaced."""
    if not path:
        return value
    head, *rest = path
    if isinstance(head, int):
        items = list(obj)
        items[head] = put(obj[head], rest, value)
        return tuple(items)
    return dataclasses.replace(obj, **{head: put(getattr(obj, head), rest, value)})


def get(obj, path):
    for head in path:
        obj = obj[head] if isinstance(head, int) else getattr(obj, head)
    return obj


def label(path):
    return "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path).lstrip(".")


# a valid value to vary for the fields whose default is empty
SWEEP_SAMPLES = {"initial_edges": ((1, 2),)}


@pytest.mark.parametrize(
    "cls,error,from_json",
    [
        (ExperimentConfig, ValidationError, ExperimentConfig.from_json),
        (SyntheticSpec, GenerationError,
         lambda doc: SyntheticSpec.from_json(doc).validate()),
    ],
)
def test_every_declared_bound_holds_at_its_edge(cls, error, from_json):
    """Each bound accepts its edge value and rejects the first value past
    it, naming the field path, both on a value built in Python (validate)
    and on its JSON form (decode)."""
    seen = []
    for path, bound, tp in bound_sites(cls):
        base = cls()
        if path[0] in SWEEP_SAMPLES:
            base = put(base, path[:1], SWEEP_SAMPLES[path[0]])
        for ok, bad in edge_and_past(bound, tp, get(base, path)):
            accepted = put(base, path, ok)
            accepted.validate()
            from_json(accepted.to_json())
            rejected = put(base, path, bad)
            pattern = f"^{re.escape(label(path))} must"
            with pytest.raises(error, match=pattern):
                rejected.validate()
            with pytest.raises(error, match=pattern):
                from_json(rejected.to_json())
        seen.append(label(path))
    expected = {
        ExperimentConfig: {"lags", "lags[0]", "tune_folds", "tune_grid.nn_hidden[0]",
                           "features.covariate_offset", "features.latent.mmsbm_k",
                           "bootstrap_level"},
        SyntheticSpec: {"n_nodes", "rate_band[1]", "initial_edges[0][1]", "max_attempts"},
    }[cls]
    assert expected <= set(seen)


@pytest.mark.parametrize("kind", LEARNERS)
def test_every_learner_keyword_bound_holds_at_its_edge(kind):
    """The same sweep over each fit keyword: learner_params accepts the
    edge value and rejects the first value past it, and so does a direct
    call of the fit function, given valid values of its other
    hyperparameters."""
    X = np.arange(12.0)[:, None]
    train = TrainingSet.build(X, (X[:, 0] % 2 == 0).astype(float), ("x",))
    valid = {"lam": 0.1, "rounds": 1, "hidden": 1, "decay": 0.1}
    required = {k: v for k, v in valid.items() if k in learner_keywords(kind)}
    for name, tp in learner_keywords(kind).items():
        for _, bound, bounded in bound_sites(tp):
            for ok, bad in edge_and_past(bound, bounded, ()):
                ExperimentConfig(learner_params={kind: {name: ok}}).validate()
                ExperimentConfig.from_json({"learner_params": {kind: {name: ok}}})
                path = f"learner_params.{kind}.{name}"
                with pytest.raises(ValidationError, match=f"^{re.escape(path)} must"):
                    ExperimentConfig.from_json({"learner_params": {kind: {name: bad}}})
                with pytest.raises(ValueError, match=f"^{name} must"):
                    FIT_FUNCTIONS[kind](train, **{**required, name: bad})


def test_cli_rejects_undeclared_covariate_names(tmp_path, capsys):
    """`dyadcast run` accepts only the nine canonical covariate names; a
    library caller declares others through load_covariates(extra_names=)."""
    events = tmp_path / "events.csv"
    events.write_text("sender,receiver,year\na,b,1\nb,c,2\nc,a,3\n")
    covariates = tmp_path / "covariates.csv"
    covariates.write_text("year,i,j,name,value\n1,a,b,coolness,0.5\n")
    cfg = ExperimentConfig(
        events=str(events), covariates=str(covariates), first_period=3, last_period=3,
        lags=(1,), spec_classes=("covariates-only",), learners=("logit",),
        output_dir=str(tmp_path / "run"),
    )
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg.to_json()))
    assert main(["run", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err == "error: undeclared covariate name 'coolness'\n"
    table = load_covariates(covariates, extra_names=("coolness",))
    assert table.names == ("coolness",)


def test_cli_non_finite_covariate_exits_2_naming_the_line(tmp_path, capsys):
    events = tmp_path / "events.csv"
    events.write_text("sender,receiver,year\na,b,1\nb,c,2\nc,a,3\n")
    covariates = tmp_path / "covariates.csv"
    covariates.write_text(
        "year,i,j,name,value\n1,a,b,CINC-ratio,0.5\n2,a,b,CINC-ratio,nan\n"
    )
    cfg = ExperimentConfig(
        events=str(events), covariates=str(covariates), first_period=3, last_period=3,
        lags=(1,), spec_classes=("covariates-only",), learners=("logit",),
        output_dir=str(tmp_path / "run"),
    )
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg.to_json()))
    assert main(["run", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err == (
        "error: covariates: line 3: value 'nan' is not a finite number\n"
    )
    assert not (tmp_path / "run").exists()


BIG_FIELD = b"x" * 140_000  # over the csv module's 131,072-character field limit
# (file, its bytes, dyadcast run's stderr): valid rows, then bytes that are
# not UTF-8 or a field the csv module refuses
MALFORMED_BYTES = [
    ("events", b"sender,receiver,year\na,b,1\nb,c,2\nc,a,\xff\n",
     "events: byte 0xff is not UTF-8 text (invalid start byte)"),
    ("events", b"sender,receiver,year\na,b,1\nb,c,2\nc,a," + BIG_FIELD + b"\n",
     "events: line 4: field larger than field limit (131072)"),
    ("registry", b"node,first_year,last_year\na,1,3\nb,1,3\nc,1,\xff\n",
     "registry: byte 0xff is not UTF-8 text (invalid start byte)"),
    ("registry", b"node,first_year,last_year\na,1,3\nb,1,3\nc,1," + BIG_FIELD + b"\n",
     "registry: line 4: field larger than field limit (131072)"),
    ("covariates", b"year,i,j,name,value\n1,a,b,CINC-ratio,\xff\n",
     "covariates: byte 0xff is not UTF-8 text (invalid start byte)"),
    ("covariates", b"year,i,j,name,value\n1,a,b,CINC-ratio,0.5\n2,a,b,CINC-ratio," + BIG_FIELD,
     "covariates: line 3: field larger than field limit (131072)"),
    # a duplicate key on an earlier line comes first, as a row-by-row reader finds it
    ("covariates",
     b"year,i,j,name,value\n1,a,b,CINC-ratio,0.5\n1,a,b,CINC-ratio,0.5\n1,a,b,CINC-ratio,"
     + BIG_FIELD + b"\n",
     "covariates: line 3: duplicate key (1, 'a', 'b', 'CINC-ratio')"),
]


@pytest.mark.parametrize(
    "label,data,message", MALFORMED_BYTES,
    ids=[f"{label}-{k}" for k, (label, *_) in enumerate(MALFORMED_BYTES)],
)
def test_cli_malformed_bytes_exit_2(tmp_path, capsys, label, data, message):
    """Every input CSV is read as UTF-8: a byte that is not UTF-8, or a line
    the csv module cannot read, stops `dyadcast run` with one error line
    and exit code 2, before any output is written."""
    paths = {}
    for name, text in (
        ("events", b"sender,receiver,year\na,b,1\nb,c,2\nc,a,3\n"),
        ("registry", b"node,first_year,last_year\na,1,3\nb,1,3\nc,1,3\n"),
        ("covariates", b"year,i,j,name,value\n1,a,b,CINC-ratio,0.5\n"),
    ):
        paths[name] = tmp_path / f"{name}.csv"
        paths[name].write_bytes(data if name == label else text)
    cfg = ExperimentConfig(
        events=str(paths["events"]), registry=str(paths["registry"]),
        covariates=str(paths["covariates"]), first_period=3, last_period=3, lags=(1,),
        spec_classes=("covariates-only",), learners=("logit",), output_dir=str(tmp_path / "run"),
    )
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg.to_json()))
    assert main(["run", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "run").exists()


def test_cli_config_and_cells_that_are_not_utf8_exit_2(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_bytes(b'{"events": "\xff.csv"}')
    assert main(["run", "--config", str(config)]) == 2
    assert capsys.readouterr().err.startswith("error: 'utf-8' codec can't decode byte 0xff")
    config.write_text(json.dumps(ExperimentConfig().to_json()))
    (tmp_path / "cells.csv").write_bytes(CELLS_LINE_1.encode() + b"1,2,combined,\xff\n")
    assert main(["summarize", "--in", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        "error: cells: byte 0xff is not UTF-8 text (invalid start byte)\n"
    )


def test_cli_bad_inputs_exit_2(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", "--config", str(bad)]) == 2
    bad_keys = tmp_path / "badkeys.json"
    bad_keys.write_text(json.dumps({"frobnicate": 1}))
    assert main(["run", "--config", str(bad_keys)]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 3
