#!/usr/bin/env python3
"""Flower-CDN vs Squirrel: the locality-awareness comparison of Sections 6.3/6.4.

Both systems process exactly the same Zipf query trace on the same underlying
topology.  The example prints the three comparisons the paper plots:

* Figure 6 — cumulative hit ratio over time (Squirrel converges faster);
* Figure 7 — lookup latency, average and distribution (Flower-CDN is several
  times faster because only first queries traverse the DHT);
* Figure 8 — transfer distance, average and distribution (Flower-CDN serves
  content from the requester's own locality).

Run with:  python examples/squirrel_comparison.py
"""

from repro.experiments import run_locality_experiment
from repro.scenarios import get_scenario


def main() -> None:
    # The head-to-head workload is a library scenario; one session of its two
    # systems over one trace yields the curves of all three figures.
    locality = run_locality_experiment(get_scenario("squirrel-head-to-head").with_seed(11))

    print("Figure 6: hit ratio, Flower-CDN vs Squirrel")
    print("===========================================")
    print(locality.format_figure6())
    print()

    print("Figures 7 and 8: locality-awareness gains")
    print("=========================================")
    print(locality.format_figure7())
    print()
    print(locality.format_figure8())
    print()

    print("Summary of the paper's headline claims on this run:")
    print(
        f"  lookup latency reduction   : {locality.lookup_latency_speedup:.1f}x "
        "(paper reports ~9x on its 24h PeerSim run)"
    )
    print(
        f"  transfer distance reduction: {locality.transfer_distance_reduction:.1f}x "
        "(paper reports ~2x)"
    )
    print(
        f"  final hit ratio gap        : {locality.final_hit_ratio_gap:+.3f} in Squirrel's favour "
        "(paper reports ~0.13 after 24h)"
    )


if __name__ == "__main__":
    main()
