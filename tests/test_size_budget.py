"""Size budget: no module under ``src/repro/`` grows past 700 lines.

ROADMAP direction 3 ("no file in ``src/`` over 700 lines") as a gate, with
no exceptions.  Beside it: one run loop, one recording path, and no config
field that no scenario can set.
"""

from __future__ import annotations

import ast
from dataclasses import fields
from pathlib import Path

from repro.core.config import FlowerConfig, GossipConfig
from repro.network.topology import TopologyConfig
from repro.workload.generator import WorkloadConfig

SRC = Path(__file__).parent.parent / "src" / "repro"
LIMIT = 700


def _line_counts() -> dict:
    return {
        path.relative_to(SRC).as_posix(): len(path.read_text(encoding="utf-8").splitlines())
        for path in sorted(SRC.rglob("*.py"))
    }


def test_no_module_exceeds_its_budget():
    over = {name: lines for name, lines in _line_counts().items() if lines > LIMIT}
    assert not over, f"modules over the {LIMIT}-line budget: {over}"


def test_no_further_run_loop_replays_a_trace():
    """One place runs a Flower system over a trace (``BlockedRun.run_block``):
    a module that starts calling ``.schedule_trace(`` is a second run loop."""
    callers = {
        path.relative_to(SRC).as_posix(): path.read_text(encoding="utf-8").count(".schedule_trace(")
        for path in sorted(SRC.rglob("*.py"))
    }
    assert {name: count for name, count in callers.items() if count} == {
        "sim/sharded.py": 1,  # the loop
        "experiments/driver.py": 1,  # run_squirrel
        "perf/suite.py": 2,  # the queue micro-benchmarks
    }


def test_one_recording_path():
    """A run's rows reach the metrics only through its one fold
    (``ExperimentRunner.fold_outcomes``): no module calls the one-query API
    ``process_query``, and no system builds a collector of its own."""
    sources = {
        path.relative_to(SRC).as_posix(): path.read_text(encoding="utf-8")
        for path in sorted(SRC.rglob("*.py"))
    }
    assert [name for name, text in sources.items() if ".process_query(" in text] == []
    assert [
        name
        for name, text in sources.items()
        if name.startswith(("core/", "baselines/")) and "MetricsCollector(" in text
    ] == []


#: config fields a spec does not set, with the reason each stays settable
UNSET_FIELDS_ALLOWED = {
    "dead_age": "test fixtures set it; changing them re-bases their expectations",
    "website_bits": "test fixtures set it; changing them re-bases their expectations",
    "intra_locality_spread_ms": "test fixtures set it; changing them re-bases their expectations",
}


def test_every_config_field_is_set_by_a_spec():
    """A field that ``ScenarioSpec.to_flower_config`` / ``to_setup`` never
    passes has one value in every run: it is a constant, not an option."""
    tree = ast.parse((SRC / "scenarios" / "spec.py").read_text(encoding="utf-8"))
    builders = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name in ("to_flower_config", "to_setup")
    ]
    assert len(builders) == 2
    configs = (FlowerConfig, GossipConfig, TopologyConfig, WorkloadConfig)
    passed = {config.__name__: set() for config in configs}
    for builder in builders:
        for node in ast.walk(builder):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) in passed:
                passed[node.func.id].update(keyword.arg for keyword in node.keywords)
    unset = {
        spec_field.name
        for config in configs
        for spec_field in fields(config)
        if spec_field.name not in passed[config.__name__]
    }
    assert unset == set(UNSET_FIELDS_ALLOWED)
