"""Size budget: no module under ``src/repro/`` grows past 700 lines.

ROADMAP direction 3 ("no file in ``src/`` over 700 lines") as a gate, with
no exceptions.
"""

from __future__ import annotations

from pathlib import Path

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
