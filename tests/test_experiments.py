"""Tests for the experiment driver and the per-figure experiment modules.

These use a very small laptop-scale spec so each simulated run completes in
well under a second while still exercising the full pipeline (topology →
workload → client assignment → both CDN systems → metrics), through the
``Session`` every run goes through.  The Table 2 sweep shapes run through
the sweep engine over the same tiny base spec.
"""

from dataclasses import replace

import pytest

from repro.experiments import run_churn_experiment, run_locality_experiment
from repro.scenarios import ChurnProfile, ScenarioSpec, get_scenario
from repro.session import Session
from repro.sweeps import SweepAxis, SweepSpec, run_sweep
from repro.sweeps.artifacts import format_sweep_result
from tests.reference.workload import resolved_queries


def tiny_spec(seed: int = 7, duration_s: float = 1200.0) -> ScenarioSpec:
    return ScenarioSpec(
        name="tiny",
        seed=seed,
        duration_s=duration_s,
        metrics_window_s=max(300.0, duration_s / 12),
        query_rate_per_s=1.0,
        num_websites=6,
        active_websites=2,
        objects_per_website=40,
        num_localities=3,
        max_content_overlay_size=15,
        num_hosts=300,
    )


def tiny_sweep(axis: SweepAxis, duration_s: float = 1200.0):
    """One axis swept over the tiny base spec; the cells, in grid order."""
    sweep = SweepSpec(name="tiny-sweep", description="", base="tiny", axes=(axis,))
    return run_sweep(sweep, base_spec=tiny_spec(duration_s=duration_s))


def tiny_flower(seed: int, duration_s: float):
    return Session(tiny_spec(seed=seed, duration_s=duration_s)).run_system("flower")


@pytest.fixture(scope="module")
def shared_session() -> Session:
    return Session(replace(tiny_spec(), systems=("flower", "squirrel")))


class TestExperimentSetup:
    def test_paper_scale_matches_table1(self):
        setup = get_scenario("paper-default-full-scale").to_setup()
        assert setup.flower.num_websites == 100
        assert setup.flower.num_localities == 6
        assert setup.workload.query_rate_per_s == 6.0
        assert setup.topology.num_hosts == 5000

    def test_laptop_scale_preserves_ratios(self):
        setup = tiny_spec().to_setup()
        assert setup.flower.num_websites == setup.workload.num_websites
        assert setup.flower.num_localities == setup.topology.num_localities
        assert setup.flower.active_websites == setup.workload.active_websites


class TestExperimentRunner:
    def test_resolved_queries_are_cached_and_sorted(self, shared_session):
        trace = shared_session.resolved_trace()
        assert trace is shared_session.resolved_trace()
        times = [q.time for q in resolved_queries(trace)]
        assert times == sorted(times) == list(trace.times)
        assert len(trace) > 500

    def test_flower_and_squirrel_process_the_same_trace(self, shared_session):
        flower = shared_session.run_system("flower")
        squirrel = shared_session.run_system("squirrel")
        assert flower.num_queries == squirrel.num_queries == len(shared_session.resolved_trace())

    def test_flower_run_produces_consistent_aggregates(self, shared_session):
        result = shared_session.run_system("flower")
        assert 0.0 < result.hit_ratio < 1.0
        assert result.average_lookup_latency_ms > 0
        assert result.background_bps_per_peer > 0
        assert result.metrics.num_queries == result.num_queries

    def test_runs_are_deterministic_for_a_seed(self):
        first = tiny_flower(seed=3, duration_s=600.0)
        second = tiny_flower(seed=3, duration_s=600.0)
        assert first.hit_ratio == second.hit_ratio
        assert first.average_lookup_latency_ms == second.average_lookup_latency_ms

    def test_different_seeds_differ(self):
        first = tiny_flower(seed=3, duration_s=600.0)
        second = tiny_flower(seed=4, duration_s=600.0)
        assert (
            first.hit_ratio != second.hit_ratio
            or first.average_lookup_latency_ms != second.average_lookup_latency_ms
        )


class TestGossipSweeps:
    def test_gossip_period_sweep_shapes(self):
        """Table 2(b): shorter periods cost more bandwidth and help the hit ratio."""
        fast, slow = tiny_sweep(
            SweepAxis(
                label="Tgossip(s)",
                fields=("gossip_period_s", "keepalive_period_s"),
                values=((120.0, 120.0), (1800.0, 1800.0)),
            )
        )
        assert fast.metric("background_bps_per_peer") > slow.metric("background_bps_per_peer")
        assert fast.metric("hit_ratio") >= slow.metric("hit_ratio")

    def test_gossip_length_sweep_shapes(self):
        """Table 2(a): longer gossip messages cost proportionally more bandwidth."""
        short, long = tiny_sweep(SweepAxis.single("Lgossip", "gossip_length", (5, 20)))
        assert long.metric("background_bps_per_peer") > short.metric("background_bps_per_peer")
        assert long.metric("hit_ratio") >= short.metric("hit_ratio") - 0.05

    def test_view_size_sweep_bandwidth_invariant(self):
        """Table 2(c): the view size does not change bandwidth consumption."""
        small, large = tiny_sweep(
            SweepAxis(
                label="Vgossip",
                fields=("view_size", "gossip_length"),
                values=((10, 10), (50, 10)),
            )
        )
        assert small.metric("background_bps_per_peer") == pytest.approx(
            large.metric("background_bps_per_peer"), rel=0.15
        )

    def test_push_threshold_sweep_is_insensitive(self):
        low, high = tiny_sweep(
            SweepAxis.single("push threshold", "push_threshold", (0.1, 0.7))
        )
        assert abs(low.metric("hit_ratio") - high.metric("hit_ratio")) < 0.1

    def test_format_sweep_renders_rows(self):
        result = tiny_sweep(
            SweepAxis.single("Lgossip", "gossip_length", (5,)), duration_s=600.0
        )
        text = format_sweep_result(result)
        assert "Sweep: tiny-sweep" in text and "Lgossip" in text and "hit_ratio" in text


class TestFigureExperiments:
    def test_tradeoff_timeseries_curves(self):
        """Figure 5: the series of one Flower-CDN run."""
        flower = Session(tiny_spec()).run().flower
        hit_ratio = [value for _, value in flower.series["hit_ratio_cumulative"]]
        assert all(b >= a - 0.05 for a, b in zip(hit_ratio, hit_ratio[1:]))
        assert hit_ratio[-1] == pytest.approx(flower.metrics["hit_ratio"])
        assert flower.metrics["hit_ratio"] > 0.2
        assert flower.series["background_bps_per_peer"]
        assert flower.metrics["background_bps_per_peer"] > 0

    def test_hit_ratio_comparison_shape(self):
        """Figure 6: Squirrel converges faster; Flower-CDN trails at the end."""
        result = run_locality_experiment(tiny_spec())
        assert result.squirrel_run.hit_ratio >= result.flower_run.hit_ratio
        assert result.final_hit_ratio_gap >= 0
        text = result.format_figure6()
        assert "Figure 6" in text and f"gap={result.final_hit_ratio_gap:+.3f}" in text

    def test_locality_experiment_shapes(self):
        """Figures 7 and 8: Flower-CDN is faster to look up and closer to transfer."""
        result = run_locality_experiment(tiny_spec())
        assert result.lookup_latency_speedup > 1.5
        assert result.transfer_distance_reduction > 1.5
        assert result.flower_latency_histogram.fraction_below(300.0) > 0.3
        assert (
            result.flower_fraction_close_transfers(100.0)
            > result.squirrel_fraction_close_transfers(100.0)
        )
        assert "Figure 7" in result.format_figure7()
        assert "Figure 8" in result.format_figure8()

    def test_churn_experiment_reports_recovery(self):
        result = run_churn_experiment(
            tiny_spec(),
            churn=ChurnProfile(
                content_failures_per_hour=60.0,
                directory_failures_per_hour=6.0,
                locality_changes_per_hour=12.0,
            ),
        )
        assert result.baseline.num_queries == result.churned.num_queries
        assert result.events_injected > 0
        assert result.churned.hit_ratio > 0.1
        assert "Churn ablation" in result.format()
