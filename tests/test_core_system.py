"""Integration-level unit tests for the FlowerCDN system orchestration."""

import pytest

from repro.core.config import FlowerConfig, GossipConfig
from repro.core.system import FlowerCDN
from repro.metrics.collectors import QueryOutcome
from repro.network.topology import Topology, TopologyConfig
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.workload.assignment import ResolvedQuery


@pytest.fixture
def config() -> FlowerConfig:
    return FlowerConfig(
        num_websites=3,
        active_websites=2,
        objects_per_website=25,
        num_localities=3,
        max_content_overlay_size=8,
        locality_bits=2,
        website_bits=12,
        gossip=GossipConfig(
            gossip_period_s=60.0, view_size=6, gossip_length=3, push_threshold=0.2,
            keepalive_period_s=60.0, dead_age=3,
        ),
        simulation_duration_s=3600.0,
        metrics_window_s=300.0,
    )


@pytest.fixture
def topology(config: FlowerConfig) -> Topology:
    topo_config = TopologyConfig(
        num_hosts=300,
        num_localities=config.num_localities,
        locality_weights=(1.0, 1.0, 1.0),
    )
    return Topology(topo_config, RandomStreams(31))


@pytest.fixture
def system(config: FlowerConfig, topology: Topology) -> FlowerCDN:
    sim = Simulator(seed=5, end_time=config.simulation_duration_s)
    cdn = FlowerCDN(config, sim, topology)
    cdn.bootstrap()
    return cdn


def website_name(system: FlowerCDN, index: int = 0) -> str:
    return system.catalog.websites[index].name


def object_of(system: FlowerCDN, site_index: int = 0, object_index: int = 0) -> str:
    return system.catalog.websites[site_index].object_id(object_index)


def free_host(system: FlowerCDN, locality: int, offset: int = 0) -> int:
    hosts = [
        h for h in system.topology.hosts_in_locality(locality)
        if h not in system.reserved_hosts
    ]
    return hosts[offset]


def make_query(system: FlowerCDN, query_id: int, locality: int, host: int,
               site_index: int = 0, object_index: int = 0, time: float = 0.0) -> ResolvedQuery:
    return ResolvedQuery(
        query_id=query_id,
        time=time,
        website=website_name(system, site_index),
        object_id=object_of(system, site_index, object_index),
        locality=locality,
        client_host=host,
        is_new_client=True,
    )


class TestBootstrap:
    def test_one_directory_per_website_locality_pair(self, system: FlowerCDN, config):
        assert system.num_directory_peers == config.num_websites * config.num_localities
        for website in system.catalog:
            for locality in range(config.num_localities):
                directory = system.directory_for(website.name, locality)
                assert directory is not None
                assert directory.locality == locality
                assert directory.index_size == 0  # empty directories at start

    def test_directory_hosts_live_in_their_locality(self, system: FlowerCDN):
        for website in system.catalog:
            for locality in range(system.config.num_localities):
                directory = system.directory_for(website.name, locality)
                assert system.topology.locality_of(directory.host_id) == locality

    def test_bootstrap_can_only_run_once(self, system: FlowerCDN):
        with pytest.raises(RuntimeError):
            system.bootstrap()

    def test_reserved_hosts_match_directory_hosts(self, system: FlowerCDN):
        directory_hosts = {
            system.directory_for(w.name, loc).host_id
            for w in system.catalog
            for loc in range(system.config.num_localities)
        }
        assert system.reserved_hosts == directory_hosts

    def test_queries_require_bootstrap(self, config, topology):
        sim = Simulator(seed=1)
        cdn = FlowerCDN(config, sim, topology)
        with pytest.raises(RuntimeError):
            cdn.handle_query(
                ResolvedQuery(0, 0.0, "site-000.example.org",
                              "http://site-000.example.org/object/0", 0, 0, True)
            )


class TestNewClientQueries:
    def test_first_query_for_an_object_misses_to_server(self, system: FlowerCDN):
        host = free_host(system, locality=0)
        record = system.handle_query(make_query(system, 0, 0, host))
        assert record.outcome is QueryOutcome.SERVER_MISS
        assert record.lookup_latency_ms > 0
        assert record.transfer_distance_ms == system.latency.server_latency_ms

    def test_new_client_becomes_content_peer_and_is_indexed(self, system: FlowerCDN):
        host = free_host(system, locality=0)
        system.handle_query(make_query(system, 0, 0, host))
        website = website_name(system)
        assert len(system.overlay_members(website, 0)) == 1
        directory = system.directory_for(website, 0)
        assert directory.index_size == 1
        assert directory.lookup_index(object_of(system)) != []

    def test_second_client_is_served_from_the_first(self, system: FlowerCDN):
        first_host = free_host(system, 0, 0)
        second_host = free_host(system, 0, 1)
        system.handle_query(make_query(system, 0, 0, first_host))
        record = system.handle_query(make_query(system, 1, 0, second_host))
        assert record.outcome is QueryOutcome.LOCAL_OVERLAY_HIT
        assert record.provider == f"c({website_name(system)})@{first_host}"
        assert record.transfer_distance_ms < system.latency.server_latency_ms

    def test_query_from_other_locality_can_hit_via_directory_summaries(self, system: FlowerCDN):
        # Locality 0 stores the object, then its directory publishes a summary
        # to its D-ring neighbours; a client in locality 1 must then reach it.
        website = website_name(system)
        system.handle_query(make_query(system, 0, 0, free_host(system, 0, 0)))
        directory0 = system.directory_for(website, 0)
        summary = directory0.publish_summary()
        system.directory_for(website, 1).store_neighbor_summary(directory0.peer_id, summary)
        record = system.handle_query(make_query(system, 1, 1, free_host(system, 1, 0)))
        assert record.outcome is QueryOutcome.REMOTE_OVERLAY_HIT

    def test_overlay_size_cap_is_respected(self, system: FlowerCDN, config):
        website = website_name(system)
        for i in range(config.max_content_overlay_size + 3):
            host = free_host(system, 0, i)
            system.handle_query(make_query(system, i, 0, host, object_index=i % 5))
        assert len(system.overlay_members(website, 0)) <= config.max_content_overlay_size

    def test_metrics_are_recorded(self, system: FlowerCDN):
        system.handle_query(make_query(system, 0, 0, free_host(system, 0, 0)))
        assert system.metrics.num_queries == 1


class TestQueryAdapter:
    """``handle_query`` is an object adapter over the scalar ``process_query``."""

    def test_handle_query_returns_the_record_of_the_recorded_row(self, system: FlowerCDN):
        hosts = [free_host(system, 0, offset) for offset in range(3)]
        queries = [
            make_query(system, 0, 0, hosts[0], time=1.0),
            make_query(system, 1, 0, hosts[1], time=2.0),  # served by the first client
            make_query(system, 2, 0, hosts[1], time=3.0),  # now a content peer itself
            make_query(system, 3, 0, hosts[2], object_index=4, time=4.0),
        ]
        records = [system.handle_query(query) for query in queries]
        assert records == list(system.metrics.records)
        assert [record.query_id for record in records] == [0, 1, 2, 3]
        assert {record.outcome for record in records} >= {
            QueryOutcome.SERVER_MISS, QueryOutcome.LOCAL_OVERLAY_HIT,
        }

    def test_both_entries_take_the_same_path(self, config, topology):
        def fresh():
            cdn = FlowerCDN(config, Simulator(seed=5), topology)
            cdn.bootstrap()
            return cdn

        by_object, by_scalars = fresh(), fresh()
        for index in range(12):
            query = make_query(
                by_object, index, index % 3, free_host(by_object, index % 3, index % 2),
                object_index=index % 4, time=float(index),
            )
            record = by_object.handle_query(query)
            row = by_scalars.process_query(
                query.query_id, query.time, query.website, query.object_id,
                query.locality, query.client_host,
            )
            assert row == (
                record.outcome, record.lookup_latency_ms, record.transfer_distance_ms,
                record.overlay_hops, record.provider, record.redirection_failures,
            )
        assert by_object.metrics.records == by_scalars.metrics.records


class TestContentPeerQueries:
    def test_repeat_query_is_a_zero_latency_local_hit(self, system: FlowerCDN):
        host = free_host(system, 0, 0)
        system.handle_query(make_query(system, 0, 0, host))
        record = system.handle_query(make_query(system, 1, 0, host))
        assert record.outcome is QueryOutcome.LOCAL_OVERLAY_HIT
        assert record.lookup_latency_ms == 0.0
        assert record.transfer_distance_ms == 0.0

    def test_view_summary_resolution_after_gossip(self, system: FlowerCDN):
        website = website_name(system)
        host_a = free_host(system, 0, 0)
        host_b = free_host(system, 0, 1)
        # A caches object 0; B joins by querying object 1 (served by the server).
        system.handle_query(make_query(system, 0, 0, host_a, object_index=0))
        system.handle_query(make_query(system, 1, 0, host_b, object_index=1))
        peer_a = system.content_peer(f"c({website})@{host_a}")
        peer_b = system.content_peer(f"c({website})@{host_b}")
        # One gossip exchange so B learns A's content summary.
        reply = peer_a.handle_gossip(peer_b.build_gossip_message())
        peer_b.apply_gossip(reply)
        record = system.handle_query(make_query(system, 2, 0, host_b, object_index=0))
        assert record.outcome is QueryOutcome.LOCAL_OVERLAY_HIT
        assert record.provider == peer_a.peer_id

    def test_unresolvable_query_falls_back_to_server_and_caches(self, system: FlowerCDN):
        website = website_name(system)
        host = free_host(system, 0, 0)
        system.handle_query(make_query(system, 0, 0, host, object_index=0))
        record = system.handle_query(make_query(system, 1, 0, host, object_index=9))
        assert record.outcome is QueryOutcome.SERVER_MISS
        peer = system.content_peer(f"c({website})@{host}")
        assert peer.has_object(object_of(system, 0, 9))

    def test_directory_fallback_configuration(self, config, topology):
        fallback_config = FlowerConfig(
            **{**config.__dict__, "content_miss_fallback": "directory"}
        )
        sim = Simulator(seed=6, end_time=3600.0)
        cdn = FlowerCDN(fallback_config, sim, topology)
        cdn.bootstrap()
        host_a = free_host(cdn, 0, 0)
        host_b = free_host(cdn, 0, 1)
        cdn.handle_query(make_query(cdn, 0, 0, host_a, object_index=0))
        cdn.handle_query(make_query(cdn, 1, 0, host_b, object_index=1))
        # B's view has no summary for object 0, but the directory knows A holds it.
        record = cdn.handle_query(make_query(cdn, 2, 0, host_b, object_index=0))
        assert record.outcome is QueryOutcome.LOCAL_OVERLAY_HIT


class TestPastrySubstrate:
    def test_system_runs_on_pastry_dring(self, config, topology):
        """Section 3.1: D-ring integrates into any standard DHT, Pastry included."""
        pastry_config = FlowerConfig(**{**config.__dict__, "dht_substrate": "pastry"})
        sim = Simulator(seed=9, end_time=3600.0)
        cdn = FlowerCDN(pastry_config, sim, topology)
        cdn.bootstrap()
        host_a = free_host(cdn, 0, 0)
        host_b = free_host(cdn, 0, 1)
        first = cdn.handle_query(make_query(cdn, 0, 0, host_a))
        second = cdn.handle_query(make_query(cdn, 1, 0, host_b))
        assert first.outcome is QueryOutcome.SERVER_MISS
        assert second.outcome is QueryOutcome.LOCAL_OVERLAY_HIT
        assert cdn.num_directory_peers == pastry_config.num_websites * pastry_config.num_localities

    def test_invalid_substrate_rejected(self, config):
        with pytest.raises(ValueError):
            FlowerConfig(**{**config.__dict__, "dht_substrate": "kademlia"})


class TestMaintenance:
    def test_gossip_ticks_generate_background_traffic(self, system: FlowerCDN):
        for i in range(4):
            system.handle_query(make_query(system, i, 0, free_host(system, 0, i),
                                           object_index=i))
        system.sim.run(until=600.0)
        categories = system.bandwidth.messages_by_category()
        assert categories.get("gossip", 0) > 0
        assert categories.get("keepalive", 0) > 0
        assert system.bandwidth.average_bps_per_peer(600.0) > 0

    def test_push_updates_directory_index(self, system: FlowerCDN):
        website = website_name(system)
        host = free_host(system, 0, 0)
        system.handle_query(make_query(system, 0, 0, host, object_index=0))
        system.handle_query(make_query(system, 1, 0, host, object_index=3))
        directory = system.directory_for(website, 0)
        assert object_of(system, 0, 3) in directory.indexed_objects()

    def test_summary_refresh_reaches_neighbor_directories(self, system: FlowerCDN):
        website = website_name(system)
        for i in range(3):
            system.handle_query(make_query(system, i, 0, free_host(system, 0, i),
                                           object_index=i))
        system.sim.run(until=300.0)
        neighbors = system.dring.neighbors_of(website, 0)
        received = [
            system.directory_peer(p.peer_id).neighbor_summaries() for p in neighbors
        ]
        assert any(received), "at least one neighbour directory must have received a summary"

    def test_overlay_stats_snapshot(self, system: FlowerCDN):
        website = website_name(system)
        system.handle_query(make_query(system, 0, 0, free_host(system, 0, 0)))
        stats = system.overlay_stats(website, 0)
        assert stats.num_content_peers == 1
        assert stats.directory_index_size == 1
        assert stats.unique_objects_indexed == 1
        assert system.active_overlays()


class TestChurnHandling:
    def test_failed_provider_causes_redirection_failure_then_recovery(self, system: FlowerCDN):
        website = website_name(system)
        host_a = free_host(system, 0, 0)
        host_b = free_host(system, 0, 1)
        system.handle_query(make_query(system, 0, 0, host_a))
        assert system.fail_content_peer(f"c({website})@{host_a}")
        record = system.handle_query(make_query(system, 1, 0, host_b))
        assert record.outcome is QueryOutcome.SERVER_MISS
        assert record.redirection_failures >= 1
        # The stale index entry of the failed provider must be gone; only the
        # optimistic entry of the new client may remain (Section 3.4).
        holders = system.directory_for(website, 0).lookup_index(object_of(system))
        assert f"c({website})@{host_a}" not in holders

    def test_fail_content_peer_twice_returns_false(self, system: FlowerCDN):
        website = website_name(system)
        host = free_host(system, 0, 0)
        system.handle_query(make_query(system, 0, 0, host))
        peer_id = f"c({website})@{host}"
        assert system.fail_content_peer(peer_id)
        assert not system.fail_content_peer(peer_id)

    def test_directory_failure_is_repaired_by_a_content_peer(self, system: FlowerCDN):
        website = website_name(system)
        host = free_host(system, 0, 0)
        system.handle_query(make_query(system, 0, 0, host))
        old_directory = system.directory_for(website, 0)
        assert system.fail_directory(website, 0)
        # The surviving content peer detects the failure on its next push/keepalive.
        system.sim.run(until=200.0)
        new_directory = system.directory_for(website, 0)
        assert new_directory is not None
        assert new_directory.alive
        assert new_directory.peer_id != old_directory.peer_id
        assert system.directory_replacements >= 1
        # The D-ring identifier is preserved (Section 5.2).
        assert new_directory.node_id == old_directory.node_id

    def test_voluntary_directory_leave_hands_over_state(self, system: FlowerCDN):
        website = website_name(system)
        host = free_host(system, 0, 0)
        system.handle_query(make_query(system, 0, 0, host))
        old_directory = system.directory_for(website, 0)
        new_id = system.leave_directory(website, 0)
        assert new_id is not None
        new_directory = system.directory_for(website, 0)
        assert new_directory.peer_id == new_id
        assert new_directory.index_size >= old_directory.index_size

    def test_leave_directory_without_members_returns_none(self, system: FlowerCDN):
        website = website_name(system)
        assert system.leave_directory(website, 2) is None

    def test_locality_change_moves_peer_to_new_overlay(self, system: FlowerCDN):
        website = website_name(system)
        host = free_host(system, 0, 0)
        system.handle_query(make_query(system, 0, 0, host))
        old_peer_id = f"c({website})@{host}"
        new_peer_id = system.change_locality(old_peer_id, new_locality=1)
        assert new_peer_id is not None
        assert old_peer_id not in system.overlay_members(website, 0)
        assert new_peer_id in system.overlay_members(website, 1)
        new_peer = system.content_peer(new_peer_id)
        assert new_peer.has_object(object_of(system))

    def test_fail_directory_unknown_pair_returns_false(self, system: FlowerCDN):
        assert not system.fail_directory("http://unknown.org", 0)
