"""Command-line interface for running Flower-CDN experiments.

Usage (after installation)::

    python -m repro.cli run        [options]   # one Flower-CDN run, headline metrics
    python -m repro.cli compare    [options]   # Flower-CDN vs Squirrel on the same trace
    python -m repro.cli churn      [options]   # churn ablation (Section 5 mechanisms)
    python -m repro.cli scenarios list         # the named scenario library
    python -m repro.cli scenarios run NAME     # run one scenario, print metrics JSON
    python -m repro.cli sweep list             # the registered parameter sweeps
    python -m repro.cli sweep run NAME         # run one sweep grid (--jobs N, --out DIR)
    python -m repro.cli serve                  # HTTP job service with a run cache

``sweep`` without a verb (flag-style options only) remains reachable as the
deprecated legacy Table 2 runner.

The experiment commands accept the scale options (``--duration-hours``,
``--query-rate``, ``--websites``, ``--active-websites``, ``--objects``,
``--localities``, ``--overlay-size``, ``--hosts``, ``--seed``);
``--paper-scale`` switches to the full Table 1 configuration instead.  Both
paths construct their configuration through the declarative scenario layer
(:mod:`repro.scenarios`), which is the single source of truth for parameter
sets; ``scenarios run`` additionally supports the golden-metrics workflow
(``--check-golden`` / ``--update-golden``, see ``docs/scenarios.md``).
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.analysis import cli as analysis_cli
from repro.core.churn import ChurnConfig
from repro.core.config import HOUR, MINUTE
from repro.core.system import InfeasibleScenarioError
from repro.experiments.comparison import run_hit_ratio_comparison
from repro.experiments.churn import run_churn_experiment
from repro.experiments.driver import ExperimentRunner, ExperimentSetup
from repro.experiments.gossip_tradeoff import (
    format_sweep,
    run_gossip_length_sweep,
    run_gossip_period_sweep,
    run_view_size_sweep,
)
from repro.experiments.locality import run_locality_experiment
from repro.metrics.report import format_table
from repro import perf as perf_module
from repro.scenarios import diffing as diffing_module
from repro.scenarios import golden as golden_module
from repro.scenarios import parallel as parallel_module
from repro.scenarios import models as models_module
from repro.scenarios.library import get_scenario, iter_scenarios
from repro.scenarios.runner import run_scenario
from repro.scenarios.spec import ScenarioSpec
from repro.sweeps import artifacts as sweep_artifacts
from repro.sweeps import golden as sweep_golden
from repro.sweeps.engine import run_sweep
from repro.sweeps.library import get_sweep, iter_sweeps


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Flower-CDN (EDBT 2009) reproduction: experiment runner",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("run", "run Flower-CDN once and print the headline metrics"),
        ("compare", "run Flower-CDN and Squirrel on the same trace (Figures 6-8)"),
        ("churn", "run the churn ablation (Section 5 mechanisms)"),
    ):
        sub = subparsers.add_parser(name, help=help_text)
        _add_scale_options(sub)

    sweep = subparsers.add_parser(
        "sweep",
        help="list, show or run the registered parameter sweeps "
             "(flag-only invocation is the deprecated legacy Table 2 runner)",
    )
    # Legacy flag-style options: `repro sweep --duration-hours ...` (no verb)
    # remains reachable as a deprecated alias of the historic Table 2 runner.
    # Defaults are suppressed so legacy flags typed before a verb are
    # detected and rejected instead of silently discarded.
    _add_scale_options(sweep, suppress_defaults=True)
    sweep_verbs = sweep.add_subparsers(dest="verb")
    sweep_verbs.add_parser("list", help="list the sweep registry")
    sweep_show = sweep_verbs.add_parser(
        "show", help="print one sweep's axes and compiled grid"
    )
    sweep_show.add_argument("name", help="sweep name (see `sweep list`)")
    sweep_show.add_argument("--scale", type=float, default=1.0,
                            help="compile the grid at a ratio-preserving scale "
                                 "(default 1.0)")
    sweep_run = sweep_verbs.add_parser(
        "run", help="run one registered sweep and print its result table"
    )
    sweep_run.add_argument("name", help="sweep name (see `sweep list`)")
    sweep_run.add_argument("--jobs", type=int, default=1, metavar="N",
                           help="worker processes over the grid cells "
                                "(default 1; output is byte-identical)")
    # dest differs from the legacy --seed so the two invocation styles can
    # never clobber each other's namespace entries.
    sweep_run.add_argument("--seed", dest="seed_override", type=int, default=None,
                           help="override the base scenario's seed")
    sweep_run.add_argument("--scale", type=float, default=1.0,
                           help="ratio-preserving scale factor for the base "
                                "scenario (default 1.0)")
    sweep_run.add_argument("--out", type=str, default=None, metavar="DIR",
                           help="additionally export artifacts "
                                "(csv/json/md) into DIR")
    sweep_run.add_argument("--table", action="store_true",
                           help="print a human-readable table instead of the "
                                "JSON digest")
    sweep_run.add_argument("--check-golden", action="store_true",
                           help="run at the pinned golden scale/seed and "
                                "compare against the committed sweep golden")
    sweep_run.add_argument("--update-goldens", "--update-golden",
                           dest="update_goldens", action="store_true",
                           help="rewrite the sweep's committed golden file")

    scenarios = subparsers.add_parser(
        "scenarios", help="list, show or run the named scenarios of the library"
    )
    verbs = scenarios.add_subparsers(dest="verb", required=True)
    verbs.add_parser("list", help="list the scenario library")
    verbs.add_parser(
        "models",
        help="list the registered churn and fault models with their parameters",
    )
    show_verb = verbs.add_parser(
        "show", help="print one scenario's fully resolved spec, program and models"
    )
    show_verb.add_argument("name", help="scenario name (see `scenarios list`)")
    show_verb.add_argument("--json", action="store_true",
                           help="emit the resolved spec as JSON instead of tables")
    show_verb.add_argument("--scale", type=float, default=1.0,
                           help="show the spec at a ratio-preserving scale "
                                "(default 1.0, i.e. as registered)")
    run_verb = verbs.add_parser(
        "run", help="run one library scenario (or --all) and print metrics JSON"
    )
    run_verb.add_argument("name", nargs="?", default=None,
                          help="scenario name (see `scenarios list`)")
    run_verb.add_argument("--all", action="store_true",
                          help="run every scenario of the library")
    run_verb.add_argument("--jobs", type=int, default=None, metavar="N",
                          help="worker processes for --all (default: CPU count)")
    run_verb.add_argument("--seed", type=int, default=None,
                          help="override the scenario's seed")
    run_verb.add_argument("--scale", type=float, default=1.0,
                          help="ratio-preserving scale factor (default 1.0)")
    run_verb.add_argument("--table", action="store_true",
                          help="print a human-readable table instead of JSON")
    run_verb.add_argument("--out", type=str, default=None, metavar="DIR",
                          help="additionally export the run bundle "
                               "(digest.json/result.json/series.csv/summary.md"
                               " — the exact layout the `repro serve` run "
                               "store keeps) into DIR")
    run_verb.add_argument("--shards", type=int, default=None, metavar="N",
                          help="run through the space-parallel shard engine "
                               "with N shard engines (N >= 2; results are "
                               "digest-identical to the single-process "
                               "default)")
    run_verb.add_argument("--shard-jobs", type=int, default=None, metavar="N",
                          help="worker processes for --shards (default: CPU "
                               "affinity count; 1 runs shards inline)")
    run_verb.add_argument("--check-golden", action="store_true",
                          help="run at the pinned golden scale/seed and compare "
                               "against the committed golden file")
    run_verb.add_argument("--update-goldens", "--update-golden",
                          dest="update_goldens", action="store_true",
                          help="rewrite the scenario's committed golden file")
    diff_verb = verbs.add_parser(
        "diff", help="compare two metrics digests (files produced by `scenarios run`)"
    )
    diff_verb.add_argument("left", type=str, help="baseline digest JSON file")
    diff_verb.add_argument("right", type=str, help="candidate digest JSON file")
    diff_verb.add_argument("--exact", action="store_true",
                           help="require byte-identical metrics instead of the "
                                "golden tolerance bands")
    diff_verb.add_argument("--all-metrics", action="store_true",
                           help="print unchanged metrics too")

    analyze = subparsers.add_parser(
        "analyze",
        help="static determinism/invariant analysis of the source tree "
             "(rules DET001..DET006, see docs/determinism.md)",
    )
    analysis_cli.add_analyze_arguments(analyze)

    perf = subparsers.add_parser(
        "perf", help="run the perf-benchmark suite and emit BENCH_core.json"
    )
    perf.add_argument("--output", type=str, default="BENCH_core.json",
                      help="where to write the benchmark document "
                           "(default: ./BENCH_core.json; '-' for stdout only)")
    perf.add_argument("--scenarios", type=str, default=",".join(perf_module.DEFAULT_SCENARIOS),
                      help="comma-separated scenario names to benchmark")
    perf.add_argument("--scale", type=float, default=1.0,
                      help="scenario scale factor (default 1.0)")
    perf.add_argument("--repeats", type=int, default=3,
                      help="best-of repetitions per benchmark (default 3)")
    perf.add_argument("--quick", action="store_true",
                      help="shrunken smoke configuration (CI / tests)")
    perf.add_argument("--check", action="store_true",
                      help="compare against the committed baseline and fail on "
                           "calibrated events/sec regressions > "
                           f"{perf_module.REGRESSION_THRESHOLD:.0%}%")  # argparse %-formats help
    perf.add_argument("--baseline", type=str, default=None,
                      help="baseline path for --check (default: the committed "
                           "benchmarks/perf/BENCH_core.json)")
    perf.add_argument("--update-baseline", action="store_true",
                      help="write the results to the committed baseline path")
    perf.add_argument("--paper-scale", action="store_true",
                      help="additionally run the paper-scale benchmark "
                           "(paper-default-full-scale end to end with wall/RSS "
                           "accounting; takes minutes)")
    perf.add_argument("--shards", type=int, default=0, metavar="N",
                      help="with --paper-scale: additionally run the "
                           "paper-scale scenario through the space-parallel "
                           "shard engine with N shards and record the "
                           "paper_scale_sharded section")
    perf.add_argument("--no-memory", dest="memory", action="store_false",
                      help="skip the tracemalloc memory benchmarks")

    serve = subparsers.add_parser(
        "serve",
        help="run the HTTP job service (scenario/sweep runs with a "
             "digest-keyed run cache; see docs/service.md)",
    )
    serve.add_argument("--host", type=str, default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8437,
                       help="listen port (default 8437; 0 picks an "
                            "ephemeral port and prints it)")
    serve.add_argument("--workers", type=int, default=None, metavar="N",
                       help="worker processes executing jobs (default: CPU "
                            "affinity count, capped at 4)")
    serve.add_argument("--max-queue", type=int, default=16, metavar="M",
                       help="queued-job bound before submissions get "
                            "HTTP 429 + Retry-After (default 16)")
    serve.add_argument("--store", type=str, default="run-store", metavar="DIR",
                       help="on-disk run store directory (default ./run-store)")
    serve.add_argument("--store-max-bytes", type=int, default=None, metavar="B",
                       help="evict least-recently-used run bundles once the "
                            "store exceeds B bytes (default: unbounded)")
    serve.add_argument("--timeout", type=float, default=3600.0, metavar="S",
                       dest="timeout_s",
                       help="per-job wall-clock timeout in seconds "
                            "(default 3600; 0 disables)")
    serve.add_argument("--verbose", action="store_true",
                       help="log every HTTP request to stderr")
    return parser


#: the legacy scale options and their defaults (dest name -> default value)
SCALE_OPTION_DEFAULTS = {
    "paper_scale": False,
    "duration_hours": 3.0,
    "query_rate": 2.0,
    "websites": 20,
    "active_websites": 2,
    "objects": 200,
    "localities": 3,
    "overlay_size": 40,
    "hosts": 600,
    "seed": 42,
}


def _add_scale_options(
    parser: argparse.ArgumentParser, suppress_defaults: bool = False
) -> None:
    """Add the classic experiment scale options.

    ``suppress_defaults=True`` registers them with ``argparse.SUPPRESS``
    defaults so an option only appears on the namespace when the user typed
    it — the ``sweep`` command needs that to tell its deprecated flag-style
    legacy form apart from the verb-style form (and to *reject*, rather than
    silently drop, legacy flags placed before a verb).
    """
    def default(name: str):
        return argparse.SUPPRESS if suppress_defaults else SCALE_OPTION_DEFAULTS[name]

    parser.add_argument("--paper-scale", action="store_true",
                        default=default("paper_scale"),
                        help="use the paper's full Table 1 configuration (slow)")
    parser.add_argument("--duration-hours", type=float, default=default("duration_hours"))
    parser.add_argument("--query-rate", type=float, default=default("query_rate"))
    parser.add_argument("--websites", type=int, default=default("websites"))
    parser.add_argument("--active-websites", type=int, default=default("active_websites"))
    parser.add_argument("--objects", type=int, default=default("objects"))
    parser.add_argument("--localities", type=int, default=default("localities"))
    parser.add_argument("--overlay-size", type=int, default=default("overlay_size"))
    parser.add_argument("--hosts", type=int, default=default("hosts"))
    parser.add_argument("--seed", type=int, default=default("seed"))


def setup_from_args(args: argparse.Namespace) -> ExperimentSetup:
    """Build the experiment setup the scale options describe.

    Everything flows through a :class:`ScenarioSpec` so the command line, the
    scenario library and the benchmarks share one construction path.
    """
    if args.paper_scale:
        return ExperimentSetup.paper_scale(seed=args.seed)
    duration_s = args.duration_hours * HOUR
    return ScenarioSpec(
        name="cli-adhoc",
        description="ad-hoc configuration assembled from command-line options",
        duration_s=duration_s,
        # Preserve the historical CLI windowing (5-minute floor) so windowed
        # series printed by pre-existing commands are unchanged.
        metrics_window_s=max(5 * MINUTE, duration_s / 12.0),
        query_rate_per_s=args.query_rate,
        num_websites=args.websites,
        active_websites=args.active_websites,
        objects_per_website=args.objects,
        num_localities=args.localities,
        max_content_overlay_size=args.overlay_size,
        num_hosts=args.hosts,
        seed=args.seed,
    ).to_setup()


# -- subcommands ------------------------------------------------------------------------


def _command_run(setup: ExperimentSetup, out) -> int:
    result = ExperimentRunner(setup).run_flower()
    print(
        format_table(
            ["metric", "value"],
            [
                ("queries", result.num_queries),
                ("hit ratio", result.hit_ratio),
                ("avg lookup latency (ms)", result.average_lookup_latency_ms),
                ("avg transfer distance (ms)", result.average_transfer_distance_ms),
                ("background traffic (bps/peer)", result.background_bps_per_peer),
                ("redirection failures", result.redirection_failures),
            ],
            title="Flower-CDN run",
        ),
        file=out,
    )
    return 0


def _command_compare(setup: ExperimentSetup, out) -> int:
    comparison = run_hit_ratio_comparison(setup)
    print(comparison.format(), file=out)
    print(file=out)
    locality = run_locality_experiment(setup)
    print(locality.format_figure7(), file=out)
    print(file=out)
    print(locality.format_figure8(), file=out)
    return 0


def _command_sweep_legacy(setup: ExperimentSetup, out) -> int:
    print(format_sweep(run_gossip_length_sweep(setup), "Table 2(a): varying Lgossip"), file=out)
    print(file=out)
    print(
        format_sweep(
            run_gossip_period_sweep(setup, values=(1 * MINUTE, 30 * MINUTE, 1 * HOUR)),
            "Table 2(b): varying Tgossip",
        ),
        file=out,
    )
    print(file=out)
    print(format_sweep(run_view_size_sweep(setup), "Table 2(c): varying Vgossip"), file=out)
    return 0


# -- the `sweep` command ----------------------------------------------------------------


def _command_sweep_list(out) -> int:
    rows = []
    for sweep in iter_sweeps():
        grid = "x".join(str(side) for side in sweep.grid_shape) or "1"
        rows.append(
            (
                sweep.name,
                sweep.base,
                grid,
                sweep.num_cells,
                sweep.seed_policy,
                sweep.description,
            )
        )
    print(
        format_table(
            ["sweep", "base", "grid", "cells", "seeds", "description"],
            rows,
            title="Sweep registry",
        ),
        file=out,
    )
    return 0


def _command_sweep_show(args: argparse.Namespace, out) -> int:
    try:
        sweep = get_sweep(args.name)
    except KeyError as error:
        print(f"error: {error.args[0]}", file=sys.stderr)
        return 2
    if args.scale <= 0:
        print("error: --scale must be positive", file=sys.stderr)
        return 2
    print(format_table(
        ["field", "value"],
        [
            ("name", sweep.name),
            ("base", sweep.base),
            ("grid", "x".join(str(side) for side in sweep.grid_shape) or "1"),
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


def _command_sweep_run(args: argparse.Namespace, out) -> int:
    try:
        get_sweep(args.name)
    except KeyError as error:
        print(f"error: {error.args[0]}", file=sys.stderr)
        return 2
    if args.jobs <= 0:
        print("error: --jobs must be positive", file=sys.stderr)
        return 2
    if args.check_golden and args.update_goldens:
        print("error: --check-golden cannot be combined with --update-goldens",
              file=sys.stderr)
        return 2
    if (args.update_goldens or args.check_golden) and (
        args.seed_override is not None or args.scale != 1.0 or args.table
        or args.out
    ):
        print(
            "error: sweep goldens are pinned to the golden scale and seed; "
            "--seed/--scale/--table/--out cannot be combined with "
            "--check-golden/--update-goldens",
            file=sys.stderr,
        )
        return 2
    if args.update_goldens:
        path = sweep_golden.write_sweep_golden(args.name, jobs=args.jobs)
        print(f"updated {path}", file=out)
        return 0
    if args.check_golden:
        return sweep_golden.main([args.name, "--jobs", str(args.jobs)], out=out)
    if args.scale <= 0:
        print("error: --scale must be positive", file=sys.stderr)
        return 2
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


def _command_sweep(args: argparse.Namespace, out) -> int:
    verb = getattr(args, "verb", None)
    # The legacy options were registered with suppressed defaults, so an
    # entry on the namespace means the user actually typed the flag.
    legacy_given = [name for name in SCALE_OPTION_DEFAULTS if hasattr(args, name)]
    if verb is None:
        # Legacy flag-style invocation (pre-registry behaviour), kept
        # reachable as a deprecation shim.
        print(
            "note: flag-style `repro sweep` is deprecated; use "
            "`repro sweep run NAME` against the sweep registry "
            "(`repro sweep list`)",
            file=sys.stderr,
        )
        for name, value in SCALE_OPTION_DEFAULTS.items():
            if not hasattr(args, name):
                setattr(args, name, value)
        return _command_sweep_legacy(setup_from_args(args), out)
    if legacy_given:
        flags = ", ".join("--" + name.replace("_", "-") for name in legacy_given)
        print(
            f"error: legacy scale option(s) {flags} cannot be combined with "
            f"`sweep {verb}`; pass options after the verb "
            f"(see `repro sweep {verb} --help`)",
            file=sys.stderr,
        )
        return 2
    if verb == "list":
        return _command_sweep_list(out)
    if verb == "show":
        return _command_sweep_show(args, out)
    return _command_sweep_run(args, out)


def _command_churn(setup: ExperimentSetup, out) -> int:
    result = run_churn_experiment(
        setup,
        churn=ChurnConfig(
            content_failures_per_hour=30.0,
            directory_failures_per_hour=3.0,
            locality_changes_per_hour=6.0,
        ),
    )
    print(result.format(), file=out)
    return 0


# -- the `scenarios` command ------------------------------------------------------------


def _command_scenarios_list(out) -> int:
    rows = []
    for spec in iter_scenarios():
        systems = "+".join(spec.systems)
        churn = "yes" if spec.churn.is_enabled else "no"
        rows.append(
            (
                spec.name,
                spec.tier,
                systems,
                f"{spec.duration_s / HOUR:.1f}",
                churn,
                spec.description,
            )
        )
    print(
        format_table(
            ["scenario", "tier", "systems", "hours", "churn", "description"],
            rows,
            title="Scenario library",
        ),
        file=out,
    )
    return 0


def _command_scenarios_models(out) -> int:
    """The ``scenarios models`` verb: the churn/fault model registries.

    Every registered model is listed with its constructor parameters (the
    keys a :class:`~repro.scenarios.models.ModelRef` accepts) and the first
    line of its docstring, so a spec author can discover what a scenario's
    ``churn_model=`` / ``fault_model=`` fields may refer to without reading
    the registry source.
    """
    for kind, factories in (
        ("Churn", models_module.churn_model_factories()),
        ("Fault", models_module.fault_model_factories()),
    ):
        rows = []
        for name, factory in factories.items():
            try:
                parameters = [
                    parameter
                    for parameter in inspect.signature(factory).parameters.values()
                    if parameter.name != "self"
                    and parameter.kind is not inspect.Parameter.VAR_KEYWORD
                ]
            except (TypeError, ValueError):  # builtins without signatures
                parameters = []
            rendered = ", ".join(
                parameter.name
                if parameter.default is inspect.Parameter.empty
                else f"{parameter.name}={parameter.default!r}"
                for parameter in parameters
            )
            doc = inspect.getdoc(factory) or ""
            summary = doc.splitlines()[0] if doc else ""
            rows.append((name, rendered or "(none)", summary))
        print(
            format_table(
                ["model", "parameters", "description"],
                rows,
                title=f"{kind} models",
            ),
            file=out,
        )
    return 0


def _command_scenarios_show(args: argparse.Namespace, out) -> int:
    """The ``scenarios show`` verb: resolved spec + program, for debugging."""
    try:
        spec = get_scenario(args.name)
    except KeyError as error:
        print(f"error: {error.args[0]}", file=sys.stderr)
        return 2
    if args.scale <= 0:
        print("error: --scale must be positive", file=sys.stderr)
        return 2
    if args.scale != 1.0:
        spec = spec.scaled(args.scale)
    spans = spec.compiled_program()

    if args.json:
        document = spec.to_dict()
        document["effective"] = {
            "metrics_window_s": spec.effective_metrics_window_s,
            "keepalive_period_s": spec.effective_keepalive_period_s,
            "warmup_s": spec.warmup_s,
            "locality_bits": spec.locality_bits(),
        }
        document["compiled_program"] = [
            {
                "start_s": span.start_s,
                "end_s": span.end_s,
                "rate_multiplier": span.rate_multiplier,
                "zipf_alpha": span.zipf_alpha,
                "hotspot_rotation": span.hotspot_rotation,
            }
            for span in spans
        ]
        print(json.dumps(document, indent=2, sort_keys=True), file=out)
        return 0

    data = spec.to_dict()
    skip = {"program", "churn_model", "fault_model", "churn", "description"}
    rows = [
        (key, json.dumps(value) if isinstance(value, (list, dict)) else value)
        for key, value in sorted(data.items())
        if key not in skip
    ]
    print(format_table(["field", "value"], rows, title=f"Scenario: {spec.name}"), file=out)
    print(file=out)
    print(f"  {spec.description}", file=out)
    print(file=out)

    if spans:
        phase_rows = [
            (
                index,
                f"{span.start_s:.0f}",
                f"{span.end_s:.0f}",
                f"x{span.rate_multiplier:g}",
                "inherit" if span.zipf_alpha is None else f"{span.zipf_alpha:g}",
                span.hotspot_rotation,
            )
            for index, span in enumerate(spans)
        ]
        print(
            format_table(
                ["phase", "start(s)", "end(s)", "rate", "zipf", "rotation"],
                phase_rows,
                title="Workload program",
            ),
            file=out,
        )
    else:
        print("Workload program: single stationary phase (no program)", file=out)
    print(file=out)

    churn = spec.churn
    churn_desc = (
        f"content={churn.content_failures_per_hour:g}/h, "
        f"directory={churn.directory_failures_per_hour:g}/h, "
        f"locality={churn.locality_changes_per_hour:g}/h"
        if churn.is_enabled
        else "idle profile"
    )
    print(f"Churn model: {spec.churn_model.name} "
          f"{spec.churn_model.kwargs or ''} ({churn_desc})", file=out)
    print(f"Fault model: {spec.fault_model.name} "
          f"{spec.fault_model.kwargs or ''}", file=out)
    return 0


def _command_scenarios_diff(args: argparse.Namespace, out) -> int:
    try:
        left = diffing_module.load_digest(Path(args.left))
        right = diffing_module.load_digest(Path(args.right))
    except (OSError, ValueError, json.JSONDecodeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    diff = diffing_module.diff_digests(left, right, exact=args.exact)
    print(diffing_module.format_diff(diff, all_rows=args.all_metrics), file=out)
    return 1 if diff.out_of_tolerance else 0


def _command_scenarios_run_all(args: argparse.Namespace, out) -> int:
    """The ``scenarios run --all [--jobs N]`` path (parallel execution)."""
    if args.name is not None:
        print("error: --all cannot be combined with a scenario name", file=sys.stderr)
        return 2
    if args.table or args.update_goldens:
        print("error: --all supports JSON digests and --check-golden only",
              file=sys.stderr)
        return 2
    if args.jobs is not None and args.jobs <= 0:
        print("error: --jobs must be positive", file=sys.stderr)
        return 2
    if args.check_golden:
        if args.seed is not None or args.scale != 1.0:
            print("error: golden digests are pinned to the golden scale and "
                  "seed; --seed/--scale cannot be combined with --check-golden",
                  file=sys.stderr)
            return 2
        results = parallel_module.check_goldens(jobs=args.jobs)
        failures = 0
        for name, mismatches in results.items():
            if mismatches:
                failures += 1
                print(f"FAIL {name}:", file=out)
                for mismatch in mismatches:
                    print(f"  {mismatch}", file=out)
            else:
                print(f"ok   {name}", file=out)
        return 1 if failures else 0
    if args.scale <= 0:
        print("error: --scale must be positive", file=sys.stderr)
        return 2
    digests = parallel_module.run_scenarios(
        jobs=args.jobs, seed=args.seed, scale=args.scale
    )
    print(json.dumps(digests, indent=2, sort_keys=True), file=out)
    return 0


def _command_scenarios_run(args: argparse.Namespace, out) -> int:
    if args.all:
        return _command_scenarios_run_all(args, out)
    if args.name is None:
        print("error: a scenario name (or --all) is required", file=sys.stderr)
        return 2
    try:
        spec = get_scenario(args.name)
    except KeyError as error:
        print(f"error: {error.args[0]}", file=sys.stderr)
        return 2
    if args.jobs is not None:
        print("error: --jobs only applies to --all", file=sys.stderr)
        return 2
    if (args.update_goldens or args.check_golden) and (
        args.seed is not None or args.scale != 1.0 or args.table
    ):
        print(
            "error: golden digests are pinned to the golden scale and seed; "
            "--seed/--scale/--table cannot be combined with "
            "--check-golden/--update-goldens",
            file=sys.stderr,
        )
        return 2
    if args.shards is not None and args.shards < 1:
        print("error: --shards must be >= 1", file=sys.stderr)
        return 2
    if args.update_goldens and args.shards is not None:
        print(
            "error: goldens are produced by the single-process path; "
            "--shards runs must match them, not define them (use "
            "--check-golden to verify equivalence)",
            file=sys.stderr,
        )
        return 2
    if args.update_goldens:
        path = golden_module.write_golden(args.name)
        print(f"updated {path}", file=out)
        return 0
    if args.check_golden:
        # Golden digests are pinned to a fixed scale and seed; --scale/--seed
        # do not apply here.  --shards passes through: the committed golden
        # doubles as the equivalence oracle for the space-parallel shard
        # engine.
        argv = [args.name]
        if args.shards is not None and args.shards != 1:
            argv.extend(["--shards", str(args.shards)])
        return golden_module.main(argv, out=out)

    if args.scale <= 0:
        print("error: --scale must be positive", file=sys.stderr)
        return 2
    result = run_scenario(
        spec,
        seed=args.seed,
        scale=args.scale,
        shards=args.shards,
        shard_jobs=args.shard_jobs,
    )
    if args.out is not None:
        from repro.scenarios.artifacts import export_run_bundle

        for path in export_run_bundle(result, Path(args.out), scale=args.scale):
            print(f"wrote {path}", file=out)
    if args.table:
        for name, system in result.systems.items():
            print(
                format_table(
                    ["metric", "value"],
                    sorted(system.metrics.items()),
                    title=f"{spec.name} — {name}",
                ),
                file=out,
            )
            print(file=out)
    else:
        digest = golden_module.result_digest(result, scale=args.scale)
        print(json.dumps(digest, indent=2, sort_keys=True), file=out)
    return 0


def _command_perf(args: argparse.Namespace, out) -> int:
    """The ``perf`` verb: run the suite, optionally gate against the baseline."""
    if args.repeats <= 0:
        print("error: --repeats must be positive", file=sys.stderr)
        return 2
    if args.scale <= 0:
        print("error: --scale must be positive", file=sys.stderr)
        return 2
    if args.update_baseline and args.check:
        # --check compares against the committed baseline; combining the two
        # would overwrite it first and then vacuously compare a run to itself.
        print("error: --update-baseline cannot be combined with --check; "
              "check first, then refresh the baseline", file=sys.stderr)
        return 2
    if args.shards and not args.paper_scale:
        print("error: --shards requires --paper-scale (the sharded benchmark "
              "is a paper-scale section)", file=sys.stderr)
        return 2
    if args.shards and args.shards < 2:
        print("error: --shards must be >= 2", file=sys.stderr)
        return 2
    scenario_names_arg = [name for name in args.scenarios.split(",") if name]
    document = perf_module.run_suite(
        scenarios=scenario_names_arg,
        scale=args.scale,
        repeats=args.repeats,
        quick=args.quick,
        memory=args.memory,
        paper_scale=args.paper_scale,
        shards=args.shards,
    )
    if args.update_baseline:
        baseline_path = perf_module.default_baseline_path()
        if "paper_scale" not in document and baseline_path.exists():
            # A refresh without --paper-scale must not silently drop the
            # committed paper-scale sections (the nightly tier and its tests
            # rely on them): carry the previous numbers over.
            try:
                previous = perf_module.suite.load_baseline(baseline_path)
            except (OSError, json.JSONDecodeError):
                previous = {}
            carried = [
                key
                for key in ("paper_scale", "paper_scale_sharded")
                if key in previous
            ]
            for key in carried:
                document[key] = previous[key]
            if carried:
                print(
                    "note: kept the previous {} baseline section(s) "
                    "(re-run with --paper-scale to refresh)".format(
                        "/".join(carried)
                    ),
                    file=out,
                )
        path = perf_module.suite.write_document(document, baseline_path)
        print(f"updated baseline {path}", file=out)
    if args.output and args.output != "-":
        path = perf_module.suite.write_document(document, Path(args.output))
        print(f"wrote {path}", file=out)
    print(json.dumps(document, indent=2, sort_keys=True), file=out)
    if args.check:
        baseline_path = Path(args.baseline) if args.baseline else None
        try:
            baseline = perf_module.suite.load_baseline(baseline_path)
        except FileNotFoundError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        failures = perf_module.compare_to_baseline(document, baseline)
        if failures:
            print("PERF REGRESSION:", file=out)
            for failure in failures:
                print(f"  {failure}", file=out)
            return 1
        print("perf check ok (no calibrated events/sec regression "
              f"> {perf_module.REGRESSION_THRESHOLD:.0%})", file=out)
    return 0


def _command_serve(args: argparse.Namespace, out) -> int:
    """The ``serve`` verb: run the HTTP job service until SIGTERM/SIGINT.

    Termination signals trigger a graceful drain — the server stops
    accepting submissions, finishes every in-flight job (the run store is
    already durable for each completed one), and exits 0.
    """
    import signal
    import threading

    from repro.service import ReproService, ServiceConfig

    if args.port < 0:
        print("error: --port must be >= 0", file=sys.stderr)
        return 2
    stop = threading.Event()
    received: list[int] = []

    def _on_signal(signum: int, _frame: object) -> None:
        # No I/O here: the signal may interrupt a write to the same stream.
        received.append(signum)
        stop.set()

    # Installed before the socket accepts: a supervisor that sends SIGTERM the
    # moment /healthz answers must get a drain and exit 0, not the default kill.
    previous = {
        signum: signal.signal(signum, _on_signal)
        for signum in (signal.SIGTERM, signal.SIGINT)
    }
    try:
        try:
            config = ServiceConfig(
                host=args.host,
                port=args.port,
                workers=args.workers,
                max_queue=args.max_queue,
                store_dir=Path(args.store),
                store_max_bytes=args.store_max_bytes,
                timeout_s=None if args.timeout_s <= 0 else args.timeout_s,
                verbose=args.verbose,
            )
            service = ReproService(config)
            service.start()
        except (OSError, ValueError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        print(
            f"repro serve listening on {service.url} "
            f"(store: {config.store_dir}, workers: {service.manager.workers}, "
            f"max-queue: {config.max_queue})",
            file=out,
            flush=True,
        )
        while not stop.is_set():
            stop.wait(0.2)
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    print(
        f"received {signal.Signals(received[0]).name}: draining in-flight jobs",
        file=out,
        flush=True,
    )
    drained = service.stop(drain=True)
    print("drained" if drained else "drain timed out", file=out, flush=True)
    return 0 if drained else 1


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    """Entry point; returns the process exit code."""
    out = out if out is not None else sys.stdout
    try:
        return _dispatch(build_parser().parse_args(argv), out)
    except InfeasibleScenarioError as error:
        # An expected outcome of some (spec, seed) pairs, not a crash.
        print(f"error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream consumer (e.g. `... | head`) closed the pipe: that is a
        # normal way to stop reading, not an error.  Detach stdout so the
        # interpreter's shutdown flush does not raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


def _dispatch(args: argparse.Namespace, out) -> int:
    if args.command == "scenarios":
        if args.verb == "list":
            return _command_scenarios_list(out)
        if args.verb == "models":
            return _command_scenarios_models(out)
        if args.verb == "show":
            return _command_scenarios_show(args, out)
        if args.verb == "diff":
            return _command_scenarios_diff(args, out)
        return _command_scenarios_run(args, out)
    if args.command == "analyze":
        return analysis_cli.run_analyze(args, out)
    if args.command == "perf":
        return _command_perf(args, out)
    if args.command == "sweep":
        return _command_sweep(args, out)
    if args.command == "serve":
        return _command_serve(args, out)
    setup = setup_from_args(args)
    handlers = {
        "run": _command_run,
        "compare": _command_compare,
        "churn": _command_churn,
    }
    return handlers[args.command](setup, out)


if __name__ == "__main__":  # pragma: no cover - exercised via main() in tests
    raise SystemExit(main())
