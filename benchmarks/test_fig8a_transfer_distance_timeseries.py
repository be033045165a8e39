"""Figure 8(a): Flower-CDN's average transfer distance over time.

Paper reference: the transfer distance is high at first, while objects are
still fetched from the origin servers, then drops significantly (to ≈80 ms)
once transfers happen within the requester's own locality.

Expected shape here: a decreasing curve whose steady state is far below both
the initial value and the origin-server distance.
"""

from repro.experiments.locality import run_locality_experiment
from repro.metrics.report import format_series


def test_fig8a_transfer_distance_over_time(benchmark, bench_scenario, report):
    result = benchmark.pedantic(
        run_locality_experiment, args=(bench_scenario,), rounds=1, iterations=1
    )

    report(
        format_series(
            "Figure 8a: Flower-CDN average transfer distance (ms) over time",
            result.flower_distance_over_time,
            y_label="distance (ms)",
        )
        + f"\noverall average: {result.flower_run.average_transfer_distance_ms:.1f} ms"
    )

    curve = [value for _, value in result.flower_distance_over_time]
    assert len(curve) >= 3
    # After the warm-up the transfer distance settles below its initial level ...
    assert curve[-1] <= curve[0]
    # ... and well below the origin-server distance (the topology's max latency).
    server_distance = bench_scenario.to_setup().topology.max_latency_ms
    assert curve[-1] < 0.5 * server_distance
