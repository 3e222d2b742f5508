"""The benchmark's span wrappers must still find every function they wrap.

``perfbench/spans.py`` patches dyadcast functions by module and attribute
name. A refactor that moves or renames one of them would only show up in
the benchmark's own test run, so this checks each target here. The file is
loaded, never modified.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _patches():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PATCHES


@pytest.mark.parametrize("module,attribute", [(m, a) for m, a, *_ in _patches()])
def test_perfbench_patch_target_resolves(module, attribute):
    owner = importlib.import_module(module)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    # the wrapper replaces the attribute on this owner, so it must live there
    assert callable(vars(owner).get(name)), f"{module}.{attribute}"
