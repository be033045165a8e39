"""End-to-end integration tests exercising the whole stack against paper claims.

These run one small but complete experiment and assert the qualitative
findings of Section 6 (who wins, in which direction), which is what the
reproduction is expected to preserve.
"""

import pytest

from repro.experiments.driver import ExperimentRunner, ExperimentSetup
from repro.metrics.collectors import QueryOutcome
from repro.scenarios import ScenarioSpec
from repro.session import Session
from repro.sim.sharded import run_blocks
from tests.reference.workload import resolved_queries


@pytest.fixture(scope="module")
def session() -> Session:
    return Session(ScenarioSpec(
        name="integration",
        seed=123,
        duration_s=2400.0,
        metrics_window_s=300.0,
        query_rate_per_s=1.5,
        num_websites=8,
        active_websites=2,
        objects_per_website=60,
        num_localities=3,
        max_content_overlay_size=20,
        num_hosts=400,
    ))


@pytest.fixture(scope="module")
def setup(session: Session) -> ExperimentSetup:
    return session.setup


@pytest.fixture(scope="module")
def runner(session: Session) -> ExperimentRunner:
    return session.experiment


@pytest.fixture(scope="module")
def flower(runner: ExperimentRunner):
    # One whole-catalogue block: its FlowerCDN stays for TestSystemConsistency.
    return run_blocks(runner)[0]


@pytest.fixture(scope="module")
def squirrel(runner: ExperimentRunner):
    return runner.run_squirrel()


class TestWorkloadIntegrity:
    def test_same_queries_for_both_systems(self, runner, flower, squirrel):
        assert flower.num_queries == squirrel.num_queries
        assert flower.num_queries == len(runner.resolved_trace())

    def test_only_active_websites_get_queries(self, runner, setup):
        websites = {q.website for q in resolved_queries(runner.resolved_trace())}
        assert len(websites) == setup.workload.active_websites

    def test_clients_respect_the_overlay_cap(self, runner, setup):
        from collections import defaultdict

        clients = defaultdict(set)
        for q in resolved_queries(runner.resolved_trace()):
            clients[(q.website, q.locality)].add(q.client_host)
        assert all(
            len(hosts) <= setup.flower.max_content_overlay_size for hosts in clients.values()
        )


class TestPaperClaims:
    def test_flower_lookup_latency_is_much_lower_than_squirrel(self, flower, squirrel):
        """Figure 7: Flower-CDN resolves lookups several times faster than Squirrel."""
        assert flower.average_lookup_latency_ms * 2 < squirrel.average_lookup_latency_ms

    def test_flower_transfer_distance_is_much_lower_than_squirrel(self, flower, squirrel):
        """Figure 8: transfers happen much closer to the requester in Flower-CDN."""
        assert flower.average_transfer_distance_ms * 2 < squirrel.average_transfer_distance_ms

    def test_squirrel_hit_ratio_is_higher(self, flower, squirrel):
        """Figure 6: Squirrel converges faster, Flower-CDN trails at the end."""
        assert squirrel.hit_ratio >= flower.hit_ratio

    def test_flower_hit_ratio_keeps_rising(self, flower):
        """Figure 5: the cumulative hit ratio is (close to) non-decreasing."""
        curve = [v for _, v in flower.metrics.hit_ratio_series.cumulative_means()]
        assert len(curve) >= 3
        assert all(b >= a - 0.05 for a, b in zip(curve, curve[1:]))
        assert curve[-1] > curve[0]

    def test_flower_lookup_latency_decreases_after_warmup(self, flower):
        """Figure 7(a): the average lookup latency drops once overlays are populated."""
        curve = [v for _, v in flower.metrics.lookup_latency_series.window_means()]
        assert curve[-1] < curve[0]

    def test_background_traffic_is_modest(self, flower, setup):
        """Table 2 / Figure 5: background traffic is tens of bps per peer, not kbps."""
        assert 0 < flower.background_bps_per_peer < 1000

    def test_most_flower_hits_are_local(self, flower):
        """Locality awareness: hits are overwhelmingly served inside the locality."""
        counts = flower.metrics.outcome_counts()
        local = counts.get(QueryOutcome.LOCAL_OVERLAY_HIT, 0)
        remote = counts.get(QueryOutcome.REMOTE_OVERLAY_HIT, 0)
        assert local > remote

    def test_flower_latency_distribution_is_concentrated_low(self, flower, squirrel):
        """Figure 7(b): Flower's latency mass sits in the low bins, Squirrel's does not."""
        threshold = 300.0
        flower_fast = flower.metrics.lookup_latency_histogram.fraction_below(threshold)
        squirrel_fast = squirrel.metrics.lookup_latency_histogram.fraction_below(threshold)
        assert flower_fast > squirrel_fast

    def test_transfer_distribution_is_concentrated_close(self, flower, squirrel):
        """Figure 8(b): most Flower transfers are close; few Squirrel ones are."""
        threshold = 100.0
        flower_close = flower.metrics.transfer_distance_histogram.fraction_below(threshold)
        squirrel_close = squirrel.metrics.transfer_distance_histogram.fraction_below(threshold)
        assert flower_close > squirrel_close


class TestSystemConsistency:
    def test_directory_indexes_only_reference_live_members(self, runner, flower):
        system = runner.last_flower_system
        for website in system.catalog:
            for locality in range(system.config.num_localities):
                directory = system.directory_for(website.name, locality)
                if directory is None:
                    continue
                members = set(system.overlay_members(website.name, locality))
                assert set(tuple(directory._index)) <= members

    def test_content_peers_hold_only_their_websites_objects(self, runner, flower):
        system = runner.last_flower_system
        for peer in system._content_peers.values():  # noqa: SLF001
            site = system.catalog.website(peer.website)
            assert peer.objects <= set(site.object_ids())

    def test_every_query_was_recorded_once(self, runner, flower):
        record_ids = [record.query_id for record in flower.metrics.records]
        assert len(record_ids) == len(set(record_ids))

    def test_bandwidth_accounting_covers_content_peers(self, runner, flower):
        system = runner.last_flower_system
        assert flower.bandwidth.num_peers >= system.num_content_peers
