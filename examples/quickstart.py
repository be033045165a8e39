#!/usr/bin/env python3
"""Quickstart: run a small Flower-CDN simulation and print the headline metrics.

This is the fastest way to see the system working end to end: it builds a
laptop-scale deployment (a few hundred peers, two active websites, three
network localities), replays a Zipf query workload against it and prints the
four metrics the paper evaluates — hit ratio, lookup latency, transfer
distance and background gossip traffic.

Run with:  python examples/quickstart.py
"""

from repro import Session
from repro.metrics.report import format_table
from repro.scenarios import get_scenario


def main() -> None:
    # The canonical laptop-scale configuration lives in the scenario library:
    # `paper-default` keeps the paper's parameter ratios (Table 1) but
    # finishes in a couple of seconds.  `scaled()` shrinks it further.
    spec = get_scenario("paper-default").scaled(0.67)  # ≈ two simulated hours

    session = Session.from_spec(spec, seed=42)
    result = session.run().flower.run

    print("Flower-CDN quickstart")
    print("=====================")
    print(f"simulated duration : {result.duration_s / 3600:.1f} h")
    print(f"queries processed  : {result.num_queries}")
    print()
    print(
        format_table(
            ["metric", "value"],
            [
                ("hit ratio", f"{result.hit_ratio:.3f}"),
                ("avg lookup latency (ms)", f"{result.average_lookup_latency_ms:.1f}"),
                ("avg transfer distance (ms)", f"{result.average_transfer_distance_ms:.1f}"),
                ("background traffic (bps/peer)", f"{result.background_bps_per_peer:.1f}"),
                ("redirection failures", result.redirection_failures),
            ],
            title="Headline metrics (Section 6 of the paper)",
        )
    )

    # The content overlays that formed during the run.
    system = session.experiment.last_flower_system
    print()
    print(
        format_table(
            ["website", "locality", "content peers", "objects indexed"],
            [
                (stats.website, stats.locality, stats.num_content_peers,
                 stats.unique_objects_indexed)
                for stats in system.active_overlays()
            ],
            title="Content overlays built during the run",
        )
    )


if __name__ == "__main__":
    main()
