"""Figure 7(b): lookup-latency distribution, Flower-CDN versus Squirrel.

Paper reference: 87% of Flower-CDN's queries are resolved within 150 ms while
61% of Squirrel's queries take more than 1050 ms; on average Flower-CDN
reduces lookup latency by a factor of ≈9.

Expected shape here: Flower-CDN's latency mass is concentrated in the low
bins, Squirrel's in the high bins, and the average speedup is a multiple.
"""

from repro.experiments.locality import run_locality_experiment


def test_fig7b_lookup_latency_distribution(benchmark, bench_scenario, report):
    result = benchmark.pedantic(
        run_locality_experiment, args=(bench_scenario,), rounds=1, iterations=1
    )

    report(result.format_figure7())

    # Flower-CDN resolves most queries quickly; Squirrel only does so for
    # queries its peers answer from their own cache — every other query pays
    # multi-hop DHT routing.
    flower_fast = result.flower_latency_histogram.fraction_below(150.0)
    squirrel_fast = result.squirrel_latency_histogram.fraction_below(150.0)
    assert flower_fast > 0.4
    assert flower_fast > squirrel_fast + 0.15

    # A large share of Squirrel's queries exceed 1050 ms (61% in the paper),
    # while almost none of Flower-CDN's do.
    assert result.squirrel_fraction_slow_lookups(1050.0) > 0.3
    assert result.flower_latency_histogram.fraction_above(1050.0) < 0.1

    # Average speedup is a multiple (paper: ~9x; the simulated substrate and
    # scale change the constant, not the direction).
    assert result.lookup_latency_speedup > 2.0
