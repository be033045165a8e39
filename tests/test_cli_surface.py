"""CLI-surface snapshot: every verb and option of ``repro``, against a list.

``tests/cli_surface.json`` records, per (sub)command path, its positionals and
option strings.  A change to the command line must update it deliberately::

    python tests/test_cli_surface.py --update

The snapshot was first taken from the single-file ``cli.py`` it replaced; the
per-verb package removed exactly the flag-style ``repro sweep`` options
(``--paper-scale`` … ``--seed`` directly on ``sweep``) and nothing else.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

SNAPSHOT_PATH = Path(__file__).parent / "cli_surface.json"


def parser_surface(parser: argparse.ArgumentParser, path: str = "repro") -> dict:
    """``command path -> {"positionals": [...], "options": [...]}``, recursively."""
    surface = {path: {"positionals": [], "options": []}}
    for action in parser._actions:  # noqa: SLF001 - argparse has no public walker
        if isinstance(action, argparse._SubParsersAction):  # noqa: SLF001
            for name, subparser in action.choices.items():
                surface.update(parser_surface(subparser, f"{path} {name}"))
        elif action.option_strings:
            surface[path]["options"].extend(action.option_strings)
        else:
            surface[path]["positionals"].append(action.dest)
    surface[path]["options"].sort()
    return surface


def current_surface() -> dict:
    from repro import cli

    return parser_surface(cli.build_parser())


def test_cli_surface_matches_the_committed_snapshot():
    committed = json.loads(SNAPSHOT_PATH.read_text(encoding="utf-8"))
    assert current_surface() == committed, (
        "the command line changed; if intentional, refresh with "
        "`python tests/test_cli_surface.py --update`"
    )


def test_every_leaf_command_is_bound_to_a_handler():
    """`main` is parse-then-call: each runnable parser sets ``run``."""
    from repro import cli

    def leaves(parser):
        subparsers = [
            action for action in parser._actions  # noqa: SLF001
            if isinstance(action, argparse._SubParsersAction)  # noqa: SLF001
        ]
        if not subparsers:
            yield parser
        for action in subparsers:
            for subparser in action.choices.values():
                yield from leaves(subparser)

    for leaf in leaves(cli.build_parser()):
        assert callable(leaf.get_default("run")), leaf.prog


def test_module_entry_point_prints_help():
    src = Path(__file__).parent.parent / "src"
    completed = subprocess.run(
        [sys.executable, "-m", "repro.cli", "--help"],
        capture_output=True, text=True, timeout=60,
        env={"PYTHONPATH": str(src), "PATH": ""},
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.startswith("usage: repro [-h]")
    assert "{run,compare,churn,sweep,scenarios,analyze,perf,serve}" in completed.stdout


if __name__ == "__main__":
    if sys.argv[1:] == ["--update"]:
        SNAPSHOT_PATH.write_text(
            json.dumps(current_surface(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"updated {SNAPSHOT_PATH}")
    else:
        print(__doc__)
