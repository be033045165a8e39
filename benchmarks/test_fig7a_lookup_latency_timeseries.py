"""Figure 7(a): Flower-CDN's average lookup latency over time.

Paper reference: the average lookup latency starts high (all first queries
traverse the D-ring or fall back to the origin server), decreases as content
overlays are populated, and stabilises around 120 ms within ~5 hours.

Expected shape here: a decreasing curve whose steady-state value is far below
its initial value and far below the DHT-bound latencies Squirrel exhibits.
"""

from repro.experiments.locality import run_locality_experiment
from repro.metrics.report import format_series


def test_fig7a_lookup_latency_over_time(benchmark, bench_scenario, report):
    result = benchmark.pedantic(
        run_locality_experiment, args=(bench_scenario,), rounds=1, iterations=1
    )

    report(
        format_series(
            "Figure 7a: Flower-CDN average lookup latency (ms) over time",
            result.flower_latency_over_time,
            y_label="latency (ms)",
        )
        + f"\noverall average: {result.flower_run.average_lookup_latency_ms:.1f} ms"
    )

    curve = [value for _, value in result.flower_latency_over_time]
    assert len(curve) >= 3
    # Warm-up effect: the first window is the most expensive one.
    assert curve[0] == max(curve)
    # After warm-up the latency settles well below the initial level.
    assert curve[-1] < 0.5 * curve[0]
    # The steady state is low in absolute terms (the paper reports ~120 ms).
    assert curve[-1] < 300.0
