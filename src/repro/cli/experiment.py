"""``repro run``, ``repro compare``, ``repro churn``: the ad-hoc experiment verbs.

All three take the classic scale options, turn them into one
:class:`~repro.scenarios.spec.ScenarioSpec` and run it through a
:class:`~repro.session.Session`; an out-of-range option is a usage error.
"""

from __future__ import annotations

import argparse
from functools import partial

from repro.cli.usage import usage_error
from repro.core.config import HOUR, MINUTE
from repro.experiments.churn import run_churn_experiment
from repro.experiments.locality import run_locality_experiment
from repro.metrics.report import format_table
from repro.scenarios.library import get_scenario
from repro.scenarios.spec import ChurnProfile, ScenarioSpec
from repro.session import Session


def add_arguments(subparsers) -> None:
    for name, verb, help_text in (
        ("run", run_once, "run Flower-CDN once and print the headline metrics"),
        ("compare", run_compare,
         "run Flower-CDN and Squirrel on the same trace (Figures 6-8)"),
        ("churn", run_churn, "run the churn ablation (Section 5 mechanisms)"),
    ):
        parser = subparsers.add_parser(name, help=help_text)
        parser.add_argument("--paper-scale", action="store_true",
                            help="use the paper's full Table 1 configuration (slow)")
        parser.add_argument("--duration-hours", type=float, default=3.0)
        parser.add_argument("--query-rate", type=float, default=2.0)
        parser.add_argument("--websites", type=int, default=20)
        parser.add_argument("--active-websites", type=int, default=2)
        parser.add_argument("--objects", type=int, default=200)
        parser.add_argument("--localities", type=int, default=3)
        parser.add_argument("--overlay-size", type=int, default=40)
        parser.add_argument("--hosts", type=int, default=600)
        parser.add_argument("--seed", type=int, default=42)
        parser.set_defaults(run=partial(run_verb, verb))


def spec_from_args(args: argparse.Namespace) -> ScenarioSpec:
    """The scenario the scale options describe (``ValueError`` when one is
    out of range).

    ``--paper-scale`` is the registered Table 1 scenario; otherwise an ad-hoc
    spec, so the command line, the scenario library and the benchmarks share
    one construction path.
    """
    if args.paper_scale:
        return get_scenario("paper-default-full-scale").with_seed(args.seed)
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
    )


def run_verb(verb, args: argparse.Namespace, out) -> int:
    """Build the verb's spec — one usage line when an option is out of range
    — and hand it over."""
    try:
        spec = spec_from_args(args)
    except ValueError as error:
        return usage_error(error)
    verb(spec, out)
    return 0


def run_once(spec: ScenarioSpec, out) -> None:
    result = Session(spec).run_system("flower")
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


def run_compare(spec: ScenarioSpec, out) -> None:
    results = run_locality_experiment(spec)
    print(results.format_figure6(), file=out)
    print(file=out)
    print(results.format_figure7(), file=out)
    print(file=out)
    print(results.format_figure8(), file=out)


def run_churn(spec: ScenarioSpec, out) -> None:
    result = run_churn_experiment(
        spec,
        churn=ChurnProfile(
            content_failures_per_hour=30.0,
            directory_failures_per_hour=3.0,
            locality_changes_per_hour=6.0,
        ),
    )
    print(result.format(), file=out)
