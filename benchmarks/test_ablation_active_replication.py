"""Ablation: active replication between content overlays (Section 8 future work).

The paper plans to "introduce active replication by pushing popular contents
from some content overlay towards other overlays of the same website".  This
harness runs the same workload with and without the extension and reports the
effect on hit ratio and on remote-overlay hits, plus the extra bandwidth the
replication pushes cost.
"""

from repro.core.replication import ActiveReplicator, ReplicationConfig
from repro.metrics.collectors import QueryOutcome
from repro.metrics.report import format_table
from repro.session import Session
from repro.sim.sharded import run_blocks


def test_ablation_active_replication(benchmark, bench_scenario, report):
    def run_both():
        baseline = Session(bench_scenario).run_system("flower")
        # The replicator is an attachment no spec can name: the run is one
        # whole-catalogue block below the session, which keeps its injector.
        config = ReplicationConfig(period_s=1800.0, top_k=10, min_requests=3)
        session = Session(bench_scenario)
        replicated, _stats = run_blocks(
            session.experiment,
            None,
            (session.attach_models, lambda system: ActiveReplicator(system, config)),
        )
        (replicator,) = session.last_injectors
        return baseline, replicated, replicator

    baseline, replicated, replicator = benchmark.pedantic(run_both, rounds=1, iterations=1)

    def remote_fraction(run):
        fractions = run.metrics.outcome_fractions()
        return fractions.get(QueryOutcome.REMOTE_OVERLAY_HIT, 0.0)

    report(
        format_table(
            ["run", "hit ratio", "remote-overlay hits", "background bps/peer"],
            [
                ("without replication", baseline.hit_ratio, remote_fraction(baseline),
                 baseline.background_bps_per_peer),
                ("with replication", replicated.hit_ratio, remote_fraction(replicated),
                 replicated.background_bps_per_peer),
            ],
            title="Ablation: active replication between content overlays",
        )
        + f"\nobjects replicated across overlays: {replicator.replications_performed}"
    )

    # The extension actually replicated popular objects across overlays.
    assert replicator is not None and replicator.replications_performed > 0

    # It never hurts the hit ratio, and it costs extra (accounted) bandwidth.
    assert replicated.hit_ratio >= baseline.hit_ratio - 0.01
    assert replicated.background_bps_per_peer >= baseline.background_bps_per_peer
    assert (
        replicated.bandwidth.messages_by_category().get("replication", 0)
        == replicator.replications_performed
    )
