"""``repro scenarios list|models|show|run|diff``: the named scenario library."""

from __future__ import annotations

import argparse
import inspect
import json
from pathlib import Path

from repro.cli.usage import usage_error
from repro.core.config import HOUR
from repro.core.sharding import inseparable_reason
from repro.metrics.report import format_table
from repro.scenarios import diffing as diffing_module
from repro.scenarios import golden as golden_module
from repro.scenarios import models as models_module
from repro.scenarios import parallel as parallel_module
from repro.scenarios.artifacts import export_run_bundle
from repro.scenarios.library import get_scenario, iter_scenarios
from repro.scenarios.runner import run_scenario


def add_arguments(subparsers) -> None:
    scenarios = subparsers.add_parser(
        "scenarios", help="list, show or run the named scenarios of the library"
    )
    verbs = scenarios.add_subparsers(dest="verb", required=True)
    verbs.add_parser("list", help="list the scenario library").set_defaults(run=run_list)
    verbs.add_parser(
        "models",
        help="list the registered churn and fault models with their parameters",
    ).set_defaults(run=run_models)
    show_verb = verbs.add_parser(
        "show", help="print one scenario's fully resolved spec, program and models"
    )
    show_verb.add_argument("name", help="scenario name (see `scenarios list`)")
    show_verb.add_argument("--json", action="store_true",
                           help="emit the resolved spec as JSON instead of tables")
    show_verb.add_argument("--scale", type=float, default=1.0,
                           help="show the spec at a ratio-preserving scale "
                                "(default 1.0, i.e. as registered)")
    show_verb.set_defaults(run=run_show)
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
                          help="place the run's blocks (one website's flower "
                               "each) over N worker processes (N >= 2; "
                               "results are byte-identical to the "
                               "one-process default)")
    run_verb.add_argument("--shard-jobs", type=int, default=None, metavar="N",
                          help="worker processes for --shards (default: CPU "
                               "affinity count; 1 runs shards inline)")
    run_verb.add_argument("--check-golden", action="store_true",
                          help="run at the pinned golden scale/seed and compare "
                               "against the committed golden file")
    run_verb.add_argument("--update-goldens", "--update-golden",
                          dest="update_goldens", action="store_true",
                          help="rewrite the scenario's committed golden file")
    run_verb.set_defaults(run=run_run)
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
    diff_verb.set_defaults(run=run_diff)


def run_list(args: argparse.Namespace, out) -> int:
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


def run_models(args: argparse.Namespace, out) -> int:
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


def run_show(args: argparse.Namespace, out) -> int:
    """The ``scenarios show`` verb: resolved spec + program, for debugging."""
    try:
        spec = get_scenario(args.name)
    except KeyError as error:
        return usage_error(error.args[0])
    if args.scale <= 0:
        return usage_error("--scale must be positive")
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


def run_diff(args: argparse.Namespace, out) -> int:
    try:
        left = diffing_module.load_digest(Path(args.left))
        right = diffing_module.load_digest(Path(args.right))
    except (OSError, ValueError, json.JSONDecodeError) as error:
        return usage_error(error)
    diff = diffing_module.diff_digests(left, right, exact=args.exact)
    print(diffing_module.format_diff(diff, all_rows=args.all_metrics), file=out)
    return 1 if diff.out_of_tolerance else 0


def _run_all(args: argparse.Namespace, out) -> int:
    """The ``scenarios run --all [--jobs N]`` path (parallel execution)."""
    if args.name is not None:
        return usage_error("--all cannot be combined with a scenario name")
    if args.table or args.update_goldens:
        return usage_error("--all supports JSON digests and --check-golden only")
    if args.jobs is not None and args.jobs <= 0:
        return usage_error("--jobs must be positive")
    if args.check_golden:
        if args.seed is not None or args.scale != 1.0:
            return usage_error(
                "golden digests are pinned to the golden scale and "
                "seed; --seed/--scale cannot be combined with --check-golden"
            )
        results = parallel_module.check_goldens(jobs=args.jobs)
        reports = [
            golden_module.report_check(name, mismatches, out)
            for name, mismatches in results.items()
        ]
        return 0 if all(reports) else 1
    if args.scale <= 0:
        return usage_error("--scale must be positive")
    digests = parallel_module.run_scenarios(
        jobs=args.jobs, seed=args.seed, scale=args.scale
    )
    print(json.dumps(digests, indent=2, sort_keys=True), file=out)
    return 0


def run_run(args: argparse.Namespace, out) -> int:
    if args.all:
        return _run_all(args, out)
    if args.name is None:
        return usage_error("a scenario name (or --all) is required")
    try:
        spec = get_scenario(args.name)
    except KeyError as error:
        return usage_error(error.args[0])
    if args.jobs is not None:
        return usage_error("--jobs only applies to --all")
    if (args.update_goldens or args.check_golden) and (
        args.seed is not None or args.scale != 1.0 or args.table
    ):
        return usage_error(
            "golden digests are pinned to the golden scale and seed; "
            "--seed/--scale/--table cannot be combined with "
            "--check-golden/--update-goldens"
        )
    if args.shards is not None and args.shards < 1:
        return usage_error("--shards must be >= 1")
    if args.shard_jobs is not None and args.shard_jobs < 1:
        return usage_error("--shard-jobs must be >= 1")
    if args.update_goldens and args.shards is not None:
        return usage_error(
            "goldens are produced by the single-process path; "
            "--shards runs must match them, not define them (use "
            "--check-golden to verify equivalence)"
        )
    if args.update_goldens:
        path = golden_module.write_golden(args.name)
        print(f"updated {path}", file=out)
        return 0
    if args.check_golden:
        # Golden digests are pinned to a fixed scale and seed; --scale/--seed
        # do not apply here.  --shards passes through: the committed golden
        # doubles as the equivalence oracle for block placement.
        argv = [args.name]
        if args.shards is not None and args.shards != 1:
            argv.extend(["--shards", str(args.shards)])
        return golden_module.main(argv, out=out)

    if args.scale <= 0:
        return usage_error("--scale must be positive")
    # A spec that must run as one block has nothing to place: the reason is
    # what `python -m repro.scenarios.golden --shards N` skips it with.
    reason = inseparable_reason(spec) if (args.shards or 1) > 1 else None
    if reason is not None:
        return usage_error(reason)
    result = run_scenario(
        spec,
        seed=args.seed,
        scale=args.scale,
        shards=args.shards,
        shard_jobs=args.shard_jobs,
    )
    if args.out is not None:
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
