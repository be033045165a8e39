"""Figure 5: hit ratio and background traffic over time for the chosen setting.

Paper reference: with Tgossip = 30 min, Lgossip = 10 and Vgossip = 50 the
cumulative hit ratio keeps rising through the 24-hour run while the per-peer
background traffic stabilises at ≈74 bps after about 5 hours.

Expected shape here: a (near) monotonically increasing hit-ratio curve and a
bounded, stabilising background-traffic level.
"""

from repro.metrics.report import format_series
from repro.session import Session


def test_fig5_hit_ratio_and_traffic_over_time(benchmark, bench_scenario, report):
    result = benchmark.pedantic(
        lambda: Session(bench_scenario).run(), rounds=1, iterations=1
    )
    flower = result.flower
    hit_ratio_curve = flower.series["hit_ratio_cumulative"]
    bps_curve = flower.series["background_bps_per_peer"]
    final_bps = flower.metrics["background_bps_per_peer"]

    report(
        "\n".join([
            format_series("Figure 5a: cumulative hit ratio", hit_ratio_curve,
                          y_label="hit ratio"),
            "",
            format_series("Figure 5b: background traffic (bps/peer)", bps_curve,
                          y_label="bps"),
            "",
            f"final hit ratio = {flower.metrics['hit_ratio']:.3f}, "
            f"final background traffic = {final_bps:.1f} bps/peer",
        ])
    )

    # Figure 5 shape: the cumulative hit ratio keeps improving over time.
    curve = [value for _, value in hit_ratio_curve]
    assert all(b >= a - 0.05 for a, b in zip(curve, curve[1:]))
    assert curve[-1] > curve[0]

    # Background traffic exists, is modest, and does not keep growing: the last
    # windows sit near the overall per-peer average.
    assert 0 < final_bps < 1000
    tail = [bps for _, bps in bps_curve[-3:]]
    assert tail and max(tail) < 5 * max(final_bps, 1.0)
