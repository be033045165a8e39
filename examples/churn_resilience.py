#!/usr/bin/env python3
"""Churn resilience: exercise the failure-handling mechanisms of Section 5.

The paper describes how Flower-CDN survives content-peer failures (ageing +
keepalives, Section 5.1), directory failures (replacement by a content peer
under the same engineered identifier, Section 5.2) and locality changes
(Section 5.4), but defers their empirical study.  This example injects all
three kinds of churn into a running deployment and reports how the hit ratio
and lookup latency respond, plus how many directory replacements the system
performed.

Run with:  python examples/churn_resilience.py
"""

from repro.experiments import run_churn_experiment
from repro.scenarios import get_scenario


def main() -> None:
    # Both the workload and the churn rates come from the library's
    # heavy-churn scenario (scaled down a little for a snappier example).
    spec = get_scenario("heavy-churn").scaled(0.7).with_seed(23)
    churn = spec.churn

    print("Injected churn rates (events per hour over the whole system):")
    print(f"  content-peer failures : {churn.content_failures_per_hour:g}")
    print(f"  directory failures    : {churn.directory_failures_per_hour:g}")
    print(f"  locality changes      : {churn.locality_changes_per_hour:g}")
    print()

    result = run_churn_experiment(spec, churn=churn)
    print(result.format())
    print()

    if result.hit_ratio_drop < 0.15:
        print(
            "The gossip-based self-monitoring and the directory replacement protocol "
            f"keep the hit-ratio loss small ({result.hit_ratio_drop:+.3f}), as the paper's "
            "design intends."
        )
    else:
        print(
            f"Hit ratio dropped by {result.hit_ratio_drop:.3f} under this churn level — "
            "try a shorter gossip period (Tgossip) to recover faster."
        )


if __name__ == "__main__":
    main()
