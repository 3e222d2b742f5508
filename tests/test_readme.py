"""README examples run as written: the defaults block, the config keys
under Semantics, the quick-start's `dyadcast synth` output, and the
library-use snippet."""

import json
import re
from pathlib import Path

import pytest

from dyadcast import ExperimentConfig
from dyadcast.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def between(text, start, end):
    """The text after the first ``start`` up to the next ``end``."""
    return text.split(start, 1)[1].split(end, 1)[0]


def test_readme_defaults_block_is_the_default_config():
    block = between(README, "The full set, with defaults:\n\n```json\n", "```")
    assert json.loads(block) == ExperimentConfig().to_json()


def key_paths(doc, prefix=""):
    """Every key of a nested JSON object as a dotted path."""
    for key, value in doc.items():
        yield prefix + key
        if isinstance(value, dict):
            yield from key_paths(value, prefix + key + ".")


def test_readme_semantics_keys_are_config_keys():
    """Each backticked key that heads a bullet under Semantics, such as
    `features.covariate_offset` or `first_period` / `last_period`, names a
    key of the config."""
    section = between(README, "Semantics:\n\n", "\n\nSkips vs errors")
    heads = re.findall(r"^- ((?:`[^`]+`(?: / )?)+):", section, flags=re.MULTILINE)
    named = [key for head in heads for key in re.findall(r"`([^`]+)`", head)]
    assert len(named) == 15
    assert set(named) <= set(key_paths(ExperimentConfig().to_json()))


@pytest.fixture
def quick_start_world(tmp_path, monkeypatch, capsys):
    """The quick-start's `dyadcast synth` run in a fresh directory; returns
    what it printed."""
    monkeypatch.chdir(tmp_path)
    Path("spec.json").write_text(between(README, "cat > spec.json <<'EOF'\n", "EOF\n"))
    assert main(["synth", "--spec", "spec.json", "--out", "world"]) == 0
    return capsys.readouterr().out


def test_quick_start_synth_prints_the_readme_lines(quick_start_world):
    shown = between(README, "dyadcast synth --spec spec.json --out world\n", "\n\n")
    assert quick_start_world.splitlines() == [line[2:] for line in shown.splitlines()]


def test_library_use_snippet_runs_on_the_quick_start_world(quick_start_world):
    snippet = between(README, "## Library use\n\n```python\n", "```")
    exec(snippet, {})
    assert Path("run-out/cells.csv").read_text().count("\n") == 1 + 9 * 2 * 3 * 4
