"""Smoke tests for ``examples/``: the scripts import and the quickstart runs."""

from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).parent.parent / "examples").glob("*.py"))


def test_examples_are_discovered():
    assert {path.name for path in EXAMPLES} >= {"quickstart.py", "gossip_tuning.py"}


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.name)
def test_every_repro_import_resolves(path: Path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = 0
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "repro":
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), f"{node.module}.{alias.name}"
                imported += 1
    assert imported, "an example that uses nothing of repro?"


def test_quickstart_runs_at_tiny_scale(capsys):
    path = next(path for path in EXAMPLES if path.name == "quickstart.py")
    spec = importlib.util.spec_from_file_location("example_quickstart", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    library_lookup = module.get_scenario
    module.get_scenario = lambda name: library_lookup(name).scaled(0.2)
    module.main()
    output = capsys.readouterr().out
    assert "Headline metrics" in output and "hit ratio" in output
    assert "Content overlays built during the run" in output
