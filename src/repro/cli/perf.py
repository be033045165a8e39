"""``repro perf``: run the perf-benchmark suite, emit ``BENCH_core.json``."""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro import perf as perf_module
from repro.cli.usage import usage_error
from repro.scenarios.library import get_scenario
from repro.scenarios.spec import is_scale_factor


def add_arguments(subparsers) -> None:
    parser = subparsers.add_parser(
        "perf", help="run the perf-benchmark suite and emit BENCH_core.json"
    )
    parser.add_argument("--output", type=str, default="BENCH_core.json",
                        help="where to write the benchmark document "
                             "(default: ./BENCH_core.json; '-' for stdout only)")
    parser.add_argument("--scenarios", type=str, default=",".join(perf_module.DEFAULT_SCENARIOS),
                        help="comma-separated scenario names to benchmark")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="scenario scale factor (default 1.0)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="best-of repetitions per benchmark (default 3)")
    parser.add_argument("--quick", action="store_true",
                        help="shrunken smoke configuration (CI / tests)")
    parser.add_argument("--check", action="store_true",
                        help="compare against the committed baseline and fail on "
                             "calibrated events/sec regressions > "
                             f"{perf_module.REGRESSION_THRESHOLD:.0%}%")  # argparse %-formats help
    parser.add_argument("--baseline", type=str, default=None,
                        help="baseline path for --check and --update-baseline "
                             "(default: the committed benchmarks/perf/BENCH_core.json)")
    parser.add_argument("--update-baseline", action="store_true",
                        help="merge the sections this run produced into the "
                             "baseline document")
    parser.add_argument("--paper-scale", action="store_true",
                        help="additionally run the paper-scale benchmark "
                             "(paper-default-full-scale end to end with wall/RSS "
                             "accounting; takes minutes)")
    parser.add_argument("--shards", type=int, default=0, metavar="N",
                        help="with --paper-scale: additionally run the "
                             "paper-scale scenario with its blocks placed over "
                             "N worker processes and record the "
                             "paper_scale_sharded section")
    parser.set_defaults(run=run)


def run(args: argparse.Namespace, out) -> int:
    """The ``perf`` verb: run the suite, optionally gate against the baseline."""
    if args.repeats <= 0:
        return usage_error("--repeats must be positive")
    if not is_scale_factor(args.scale):
        return usage_error("--scale must be positive and finite")
    if args.update_baseline and args.check:
        # --check compares against the committed baseline; combining the two
        # would overwrite it first and then vacuously compare a run to itself.
        return usage_error("--update-baseline cannot be combined with --check; "
                           "check first, then refresh the baseline")
    if args.shards and not args.paper_scale:
        return usage_error("--shards requires --paper-scale (the sharded "
                           "benchmark is a paper-scale section)")
    if args.shards and args.shards < 2:
        return usage_error("--shards must be >= 2")
    scenario_names = [name for name in args.scenarios.split(",") if name]
    for name in scenario_names:
        try:
            get_scenario(name)
        except KeyError as error:
            return usage_error(error.args[0])
    document = perf_module.run_suite(
        scenarios=scenario_names,
        scale=args.scale,
        repeats=args.repeats,
        quick=args.quick,
        paper_scale=args.paper_scale,
        shards=args.shards,
    )
    baseline_path = Path(args.baseline) if args.baseline else perf_module.DEFAULT_BASELINE_PATH
    if args.update_baseline:
        # Sections this run did not produce (paper_scale without --paper-scale)
        # keep their committed numbers.
        merged: dict = {}
        if baseline_path.exists():
            merged = perf_module.suite.load_baseline(baseline_path)
        merged.update(document)
        path = perf_module.suite.write_document(merged, baseline_path)
        print(f"updated baseline {path}", file=out)
    if args.output and args.output != "-":
        path = perf_module.suite.write_document(document, Path(args.output))
        print(f"wrote {path}", file=out)
    print(json.dumps(document, indent=2, sort_keys=True), file=out)
    if args.check:
        try:
            baseline = perf_module.suite.load_baseline(baseline_path)
        except FileNotFoundError as error:
            return usage_error(error)
        failures = perf_module.compare_to_baseline(document, baseline)
        if failures:
            print("PERF REGRESSION:", file=out)
            for failure in failures:
                print(f"  {failure}", file=out)
            return 1
        print("perf check ok (no calibrated events/sec regression "
              f"> {perf_module.REGRESSION_THRESHOLD:.0%})", file=out)
    return 0
