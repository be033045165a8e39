"""Figure 8(b): transfer-distance distribution, Flower-CDN versus Squirrel.

Paper reference: 59% of Flower-CDN's queries are served from within 100 ms
versus 17% for Squirrel; on average Flower-CDN reduces the transfer distance
by a factor of ≈2.

Expected shape here: Flower-CDN serves far more transfers from close-by peers
than Squirrel does, and its average transfer distance is at least ~2× lower.
"""

from repro.experiments.locality import run_locality_experiment


def test_fig8b_transfer_distance_distribution(benchmark, bench_scenario, report):
    result = benchmark.pedantic(
        run_locality_experiment, args=(bench_scenario,), rounds=1, iterations=1
    )

    report(result.format_figure8())

    flower_close = result.flower_fraction_close_transfers(100.0)
    squirrel_close = result.squirrel_fraction_close_transfers(100.0)

    # Locality awareness: most Flower-CDN transfers are close to the requester,
    # a much smaller share of Squirrel's are (59% vs 17% in the paper).
    assert flower_close > 0.5
    assert flower_close > squirrel_close + 0.2

    # Average transfer distance is reduced by at least the paper's factor of ~2.
    assert result.transfer_distance_reduction > 2.0
