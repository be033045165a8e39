"""``repro sweep list|show|run``: the registered parameter sweeps."""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.cli.usage import usage_error
from repro.metrics.report import format_table
from repro.scenarios.spec import is_scale_factor
from repro.sweeps import artifacts as sweep_artifacts
from repro.sweeps.engine import run_sweep
from repro.sweeps.library import get_sweep, iter_sweeps


def add_arguments(subparsers) -> None:
    sweep = subparsers.add_parser(
        "sweep", help="list, show or run the registered parameter sweeps"
    )
    sweep.set_defaults(run=run)
    verbs = sweep.add_subparsers(dest="verb")
    verbs.add_parser("list", help="list the sweep registry").set_defaults(run=run_list)
    show = verbs.add_parser("show", help="print one sweep's axes and compiled grid")
    show.add_argument("name", help="sweep name (see `sweep list`)")
    show.add_argument("--scale", type=float, default=1.0,
                      help="compile the grid at a ratio-preserving scale "
                           "(default 1.0)")
    show.set_defaults(run=run_show)
    run_verb = verbs.add_parser(
        "run", help="run one registered sweep and print its result table"
    )
    run_verb.add_argument("name", help="sweep name (see `sweep list`)")
    run_verb.add_argument("--jobs", type=int, default=1, metavar="N",
                          help="worker processes over the grid cells "
                               "(default 1; output is byte-identical)")
    run_verb.add_argument("--seed", dest="seed_override", type=int, default=None,
                          help="override the base scenario's seed")
    run_verb.add_argument("--scale", type=float, default=1.0,
                          help="ratio-preserving scale factor for the base "
                               "scenario (default 1.0)")
    run_verb.add_argument("--out", type=str, default=None, metavar="DIR",
                          help="additionally export artifacts "
                               "(csv/json/md) into DIR")
    run_verb.add_argument("--table", action="store_true",
                          help="print a human-readable table instead of the "
                               "JSON digest")
    run_verb.set_defaults(run=run_run)


def run(args: argparse.Namespace, out) -> int:
    """``repro sweep`` without a verb: nothing to run."""
    return usage_error("`repro sweep` needs a verb: list, show NAME or run NAME "
                       "(see `repro sweep list`)")


def _grid(sweep) -> str:
    return "x".join(str(side) for side in sweep.grid_shape) or "1"


def run_list(args: argparse.Namespace, out) -> int:
    rows = [
        (sweep.name, sweep.base, _grid(sweep), sweep.num_cells, sweep.seed_policy,
         sweep.description)
        for sweep in iter_sweeps()
    ]
    print(
        format_table(
            ["sweep", "base", "grid", "cells", "seeds", "description"],
            rows,
            title="Sweep registry",
        ),
        file=out,
    )
    return 0


def run_show(args: argparse.Namespace, out) -> int:
    try:
        sweep = get_sweep(args.name)
    except KeyError as error:
        return usage_error(error.args[0])
    if not is_scale_factor(args.scale):
        return usage_error("--scale must be positive and finite")
    print(format_table(
        ["field", "value"],
        [
            ("name", sweep.name),
            ("base", sweep.base),
            ("grid", _grid(sweep)),
            ("cells", sweep.num_cells),
            ("seed policy", sweep.seed_policy),
        ],
        title=f"Sweep: {sweep.name}",
    ), file=out)
    print(file=out)
    print(f"  {sweep.description}", file=out)
    print(file=out)
    if sweep.axes:
        axis_rows = [
            (
                axis.label,
                ", ".join(axis.fields),
                ", ".join(axis.display_value(i) for i in range(len(axis))),
            )
            for axis in sweep.axes
        ]
        print(format_table(["axis", "fields", "values"], axis_rows, title="Axes"),
              file=out)
        print(file=out)
    compiled = sweep.compile(scale=None if args.scale == 1.0 else args.scale)
    cell_rows = [
        (
            ",".join(str(i) for i in cell.coordinates) or "-",
            " ".join(f"{label}={value}" for label, value in cell.labels) or "(base)",
            cell.seed,
        )
        for cell in compiled.cells
    ]
    print(format_table(["cell", "assignments", "seed"], cell_rows,
                       title=f"Compiled grid (base seed {compiled.base_seed}, "
                             f"scale {compiled.scale:g})"), file=out)
    return 0


def run_run(args: argparse.Namespace, out) -> int:
    try:
        get_sweep(args.name)
    except KeyError as error:
        return usage_error(error.args[0])
    if args.jobs <= 0:
        return usage_error("--jobs must be positive")
    if not is_scale_factor(args.scale):
        return usage_error("--scale must be positive and finite")
    result = run_sweep(
        args.name,
        jobs=args.jobs,
        seed=args.seed_override,
        scale=None if args.scale == 1.0 else args.scale,
    )
    if args.out:
        for path in sweep_artifacts.export_artifacts(result, Path(args.out)):
            print(f"wrote {path}", file=out)
    if args.table:
        print(sweep_artifacts.format_sweep_result(result), file=out)
    else:
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True), file=out)
    return 0
