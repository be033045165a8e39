#!/usr/bin/env python3
"""Gossip tuning: explore the hit-ratio / bandwidth trade-off of Section 6.2.

A website operator deploying Flower-CDN has to pick the gossip parameters
(Tgossip, Lgossip, Vgossip) to balance how fast the hit ratio converges
against how much background bandwidth volunteer peers spend.  This example
re-runs the registered Table 2 sweeps on a laptop-scale deployment and then
suggests a setting for a given per-peer bandwidth budget, mirroring the
discussion at the end of Section 6.2 ("for relatively fast convergence we
could set Tgossip = 30 min and Lgossip = 10 ...").

Run with:  python examples/gossip_tuning.py
"""

from repro.sweeps import format_sweep_result, run_sweep

#: per-peer background bandwidth the volunteer community is willing to spend
BANDWIDTH_BUDGET_BPS = 100.0

#: the sweeps vary the gossip knobs around the library's canonical
#: paper-default workload, so the baseline matches every other figure
TABLE2_GRIDS = ("table2a-gossip-length", "table2b-gossip-period", "table2c-view-size")


def main() -> None:
    print("Reproducing the Table 2 sweeps at laptop scale\n")
    results = {name: run_sweep(name, seed=7) for name in TABLE2_GRIDS}
    for result in results.values():
        print(format_sweep_result(result))
        print()

    # Pick the setting with the best hit ratio under the bandwidth budget,
    # exactly the trade-off the paper discusses (the view size costs no
    # bandwidth, so only the length and period grids compete).
    candidates = [
        cell
        for name in TABLE2_GRIDS[:2]
        for cell in results[name]
        if cell.metric("background_bps_per_peer") <= BANDWIDTH_BUDGET_BPS
    ]
    if candidates:
        best = max(candidates, key=lambda cell: cell.metric("hit_ratio"))
        setting = ", ".join(f"{label} = {value}" for label, value in best.labels)
        print(
            f"Recommended setting under a {BANDWIDTH_BUDGET_BPS:.0f} bps/peer budget: "
            f"{setting} (hit ratio {best.metric('hit_ratio'):.3f} at "
            f"{best.metric('background_bps_per_peer'):.1f} bps/peer)"
        )
    else:
        print(
            f"No sweep point fits a {BANDWIDTH_BUDGET_BPS:.0f} bps/peer budget; "
            "increase Tgossip or reduce Lgossip further."
        )


if __name__ == "__main__":
    main()
