"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from run import BENCHMARK, failed_cells  # noqa: E402
from spans import PATCHES, Tracer, _owner, installed, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

LISTED = [w["name"] for w in BENCHMARK["workloads"]]


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_listed_workloads_exist():
    assert LISTED and set(LISTED) <= set(WORKLOADS)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_emits_every_metric(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "0", "--seconds", "1",
                "--trace", trace, "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    # tuned-default is left out of BENCHMARK.json because its ratios.csv
    # differs between processes (README.md); only listed workloads must pass.
    if workload in LISTED:
        assert result["correct"] is True
    section = "per_layer" if trace == "1" else "end_to_end"
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert not any((ROOT / ".perfbench-work").glob("*"))


def test_unknown_seed_falls_back_to_the_canary_check():
    proc = _run(ROOT, "--workload", "covariate-wide", "--seed", "987654", "--seconds", "1",
                "--trace", "0", "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    assert "checked the smoke world of seed 0" in proc.stdout
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is True


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "latent-wide", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_wrappers_restore_the_original_functions():
    originals = [vars(_owner(m, a)[0])[_owner(m, a)[1]] for m, a, _, _ in PATCHES]
    tracer = Tracer("t")
    with pytest.raises(RuntimeError):
        with installed(tracer):
            for (m, a, _, _), original in zip(PATCHES, originals):
                owner, attr = _owner(m, a)
                assert vars(owner)[attr] is not original
                assert vars(owner)[attr].__wrapped__ is original
            raise RuntimeError("leave the block early")
    for (m, a, _, _), original in zip(PATCHES, originals):
        owner, attr = _owner(m, a)
        assert vars(owner)[attr] is original


def test_spans_nest_and_self_time_subtracts_children():
    tracer = Tracer("t")
    tracer.call("outer", lambda: tracer.call("inner", lambda: 1) + 1)
    inner, outer = sorted(tracer.spans, key=lambda s: s["name"])
    assert inner["parent"] == outer["id"] and outer["parent"] is None
    spans = [
        {"id": 0, "name": "a", "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "name": "b", "parent": 0, "start": 1.0, "end": 4.0},
        {"id": 2, "name": "c", "parent": 0, "start": 5.0, "end": 6.0},
        {"id": 3, "name": "d", "parent": 1, "start": 2.0, "end": 3.0},
    ]
    assert self_times(spans) == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0}


def test_reference_mismatch_and_errors_count_as_failed():
    ref = [[5, 1, "combined", "logit", "ok", 0.5, 0.7], [6, 1, "combined", "logit", "ok", 0.4, 0.6]]
    assert failed_cells([list(r) for r in ref], ref) == 0
    changed = [list(ref[0]), [6, 1, "combined", "logit", "ok", 0.41, 0.6]]
    assert failed_cells(changed, ref) == 1
    errored = [list(ref[0]), [6, 1, "combined", "logit", "error", None, None]]
    assert failed_cells(errored, ref) == 1
    assert failed_cells([list(ref[0])], ref) == 1
