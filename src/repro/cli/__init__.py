"""Command-line interface for running Flower-CDN experiments.

Usage (after installation)::

    python -m repro.cli run        [options]   # one Flower-CDN run, headline metrics
    python -m repro.cli compare    [options]   # Flower-CDN vs Squirrel on the same trace
    python -m repro.cli churn      [options]   # churn ablation (Section 5 mechanisms)
    python -m repro.cli scenarios list         # the named scenario library
    python -m repro.cli scenarios run NAME     # run one scenario, print metrics JSON
    python -m repro.cli sweep list             # the registered parameter sweeps
    python -m repro.cli sweep run NAME         # run one sweep grid (--jobs N, --out DIR)
    python -m repro.cli perf                   # the perf-benchmark suite
    python -m repro.cli serve                  # HTTP job service with a run cache
    python -m repro.cli analyze                # determinism/invariant lint

One module per verb family (``experiment`` holds ``run``/``compare``/``churn``):
each exposes ``add_arguments(subparsers)``, which registers its parsers and
binds their handlers with ``set_defaults(run=...)``; :func:`main` parses and calls.

The experiment commands accept the scale options (``--duration-hours``,
``--query-rate``, ``--websites``, ``--active-websites``, ``--objects``,
``--localities``, ``--overlay-size``, ``--hosts``, ``--seed``);
``--paper-scale`` switches to the full Table 1 configuration instead.  Both
paths construct their configuration through the declarative scenario layer
(:mod:`repro.scenarios`), which is the single source of truth for parameter
sets.  The golden-metrics workflow has its own command lines,
``python -m repro.scenarios.golden`` and ``python -m repro.sweeps.golden``
(see ``docs/scenarios.md``).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from repro.analysis import cli as analyze
from repro.cli import experiment, perf, scenarios, serve, sweep
from repro.cli.experiment import spec_from_args
from repro.cli.usage import usage_error
from repro.core.system import InfeasibleScenarioError

__all__ = ["build_parser", "main", "spec_from_args"]

#: the verb modules, in the order ``repro --help`` lists their commands
VERB_MODULES = (experiment, sweep, scenarios, analyze, perf, serve)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Flower-CDN (EDBT 2009) reproduction: experiment runner",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for module in VERB_MODULES:
        module.add_arguments(subparsers)
    return parser


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    """Entry point; returns the process exit code."""
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    try:
        return args.run(args, out)
    except InfeasibleScenarioError as error:
        # An expected outcome of some (spec, seed) pairs, not a crash.
        return usage_error(error)
    except BrokenPipeError:
        # Downstream consumer (e.g. `... | head`) closed the pipe: that is a
        # normal way to stop reading, not an error.  Detach stdout so the
        # interpreter's shutdown flush does not raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
