"""Ablation: what a content peer does when its view cannot resolve a query.

The paper's content peers search the gossiped content summaries of their view
(Section 4.1); what happens on a view miss is a design choice this
reproduction exposes as ``FlowerConfig.content_miss_fallback``:

* ``"server"`` (default) — go to the origin server, as the hit-ratio
  sensitivity to the gossip parameters in Table 2 implies;
* ``"directory"`` — ask the directory peer first, which holds a complete
  index of the overlay (Algorithm 3), trading an extra intra-locality hop for
  a higher hit ratio.

This harness quantifies that trade-off, which DESIGN.md lists as an ablation
target.
"""

from dataclasses import replace

from repro.metrics.report import format_table
from repro.session import Session


def test_ablation_content_miss_fallback(benchmark, bench_scenario, report):
    def run_both():
        return tuple(
            Session(replace(bench_scenario, content_miss_fallback=fallback)).run_system("flower")
            for fallback in ("server", "directory")
        )

    server_result, directory_result = benchmark.pedantic(run_both, rounds=1, iterations=1)

    report(
        format_table(
            ["fallback", "hit ratio", "avg lookup (ms)", "avg transfer distance (ms)"],
            [
                ("server (paper default)", server_result.hit_ratio,
                 server_result.average_lookup_latency_ms,
                 server_result.average_transfer_distance_ms),
                ("directory (Algorithm 3)", directory_result.hit_ratio,
                 directory_result.average_lookup_latency_ms,
                 directory_result.average_transfer_distance_ms),
            ],
            title="Ablation: content-peer miss fallback",
        )
    )

    # Falling back to the directory's complete index can only help the hit
    # ratio, because the directory knows every object the overlay holds.
    assert directory_result.hit_ratio >= server_result.hit_ratio

    # And it shortens the average lookup: fewer 500 ms origin-server round
    # trips, replaced by intra-locality redirections.
    assert directory_result.average_lookup_latency_ms <= server_result.average_lookup_latency_ms
