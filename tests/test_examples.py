"""Smoke tests for ``examples/``: the scripts import, and the single-run ones run."""

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


def run_at_tiny_scale(name: str, capsys) -> str:
    """Run one example with every library scenario it fetches ``scaled(0.2)``."""
    path = next(path for path in EXAMPLES if path.name == name)
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    library_lookup = module.get_scenario
    module.get_scenario = lambda name: library_lookup(name).scaled(0.2)
    module.main()
    return capsys.readouterr().out


def test_quickstart_runs_at_tiny_scale(capsys):
    output = run_at_tiny_scale("quickstart.py", capsys)
    assert "Headline metrics" in output and "hit ratio" in output
    assert "Content overlays built during the run" in output


def test_squirrel_comparison_runs_at_tiny_scale(capsys):
    output = run_at_tiny_scale("squirrel_comparison.py", capsys)
    for figure in ("Figure 6", "Figure 7b", "Figure 8b"):
        assert figure in output
    assert "lookup latency reduction" in output and "final hit ratio gap" in output


def test_churn_resilience_runs_at_tiny_scale(capsys):
    output = run_at_tiny_scale("churn_resilience.py", capsys)
    assert "Injected churn rates" in output and "Churn ablation" in output
    assert "churn events injected=" in output
