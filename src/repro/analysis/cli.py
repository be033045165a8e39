"""The ``repro analyze`` verb: lint the tree against the determinism rules.

Usage (also reachable as ``python -m repro.analysis``)::

    repro analyze                        # full src/ pass, text output
    repro analyze --format json src/     # machine-readable (CI)
    repro analyze --changed              # fast path: only files in the
                                         # working-tree diff (pre-commit)
    repro analyze --list-rules           # the rule catalogue
    repro analyze --rules DET003,DET006  # run a subset of rules

Exit codes: 0 clean, 1 unsuppressed findings, 2 usage/environment error.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import IO, List, Optional, Sequence

from repro.analysis.engine import EXCLUDED_DIR_NAMES, analyze_paths
from repro.analysis.rules import get_rule, iter_rules


def add_arguments(subparsers) -> None:
    """Register the ``analyze`` verb on the ``repro`` command line."""
    parser = subparsers.add_parser(
        "analyze",
        help="static determinism/invariant analysis of the source tree "
             "(rules DET001..DET006, see docs/determinism.md)",
    )
    add_analyze_arguments(parser)
    parser.set_defaults(run=run_analyze)


def add_analyze_arguments(parser: argparse.ArgumentParser) -> None:
    """Register the ``analyze`` options (shared by repro.cli and __main__)."""
    parser.add_argument(
        "paths", nargs="*", default=None, metavar="PATH",
        help="files or directories to analyze (default: src/)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--changed", action="store_true",
        help="analyze only files reported changed by git (diff vs HEAD "
             "plus untracked), restricted to PATH roots — the pre-commit "
             "fast path",
    )
    parser.add_argument(
        "--rules", type=str, default=None, metavar="IDS",
        help="comma-separated rule ids to run (default: all registered)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue (id, title, rationale) and exit",
    )


def changed_python_files(root: Path) -> List[Path]:
    """Python files changed vs HEAD (staged + unstaged) plus untracked ones."""
    commands = (
        ["git", "diff", "--name-only", "HEAD"],
        ["git", "ls-files", "--others", "--exclude-standard"],
    )
    names: List[str] = []
    for command in commands:
        completed = subprocess.run(
            command, cwd=root, capture_output=True, text=True, check=True
        )
        names.extend(completed.stdout.splitlines())
    results: List[Path] = []
    for name in dict.fromkeys(names):  # de-duplicate, keep git's order
        if not name.endswith(".py"):
            continue
        path = root / name
        # --changed is bulk discovery, so the directory exclusions apply
        # (deliberately-violating analyzer fixtures must not fail the run).
        if EXCLUDED_DIR_NAMES.intersection(path.parts):
            continue
        if path.is_file():
            results.append(path)
    return results


def _resolve_changed(
    roots: Sequence[Path], out_error: IO[str]
) -> Optional[List[Path]]:
    try:
        repo_root = Path(
            subprocess.run(
                ["git", "rev-parse", "--show-toplevel"],
                capture_output=True, text=True, check=True,
            ).stdout.strip()
        )
        changed = changed_python_files(repo_root)
    except (subprocess.CalledProcessError, OSError) as error:
        print(f"error: --changed requires a git checkout: {error}",
              file=out_error)
        return None
    resolved_roots = [root.resolve() for root in roots]
    selected = []
    for path in changed:
        resolved = path.resolve()
        if any(
            resolved == root or root in resolved.parents
            for root in resolved_roots
        ):
            selected.append(path)
    return selected


def run_analyze(args: argparse.Namespace, out: IO[str]) -> int:
    """Execute the ``analyze`` verb against a parsed namespace."""
    if args.list_rules:
        for rule in iter_rules():
            print(f"{rule.rule_id}  {rule.title}", file=out)
            print(f"        {rule.rationale}", file=out)
        return 0
    rules = None
    if args.rules:
        try:
            rules = [get_rule(rule_id.strip())
                     for rule_id in args.rules.split(",") if rule_id.strip()]
        except KeyError as error:
            print(f"error: {error.args[0]}", file=sys.stderr)
            return 2
        if not rules:
            print("error: --rules needs at least one rule id", file=sys.stderr)
            return 2
    roots = [Path(path) for path in (args.paths or ["src"])]
    for root in roots:
        if not root.exists():
            print(f"error: no such path: {root}", file=sys.stderr)
            return 2
    if args.changed:
        selected = _resolve_changed(roots, sys.stderr)
        if selected is None:
            return 2
        targets: Sequence[Path] = selected
    else:
        targets = roots
    report = analyze_paths(targets, rules=rules, display_root=Path.cwd())
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True), file=out)
    else:
        print(report.format_text(), file=out)
    return 0 if report.ok else 1


def main(argv: Optional[Sequence[str]] = None, out: Optional[IO[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro analyze",
        description="static determinism/invariant analysis "
                    "(see docs/determinism.md)",
    )
    add_analyze_arguments(parser)
    return run_analyze(parser.parse_args(argv),
                       out if out is not None else sys.stdout)


if __name__ == "__main__":  # pragma: no cover - exercised via main() in tests
    raise SystemExit(main())
