"""Unit tests for the active-replication extension (Section 8 future work)."""

import pytest

from repro.core.config import FlowerConfig, GossipConfig
from repro.core.replication import ActiveReplicator, ReplicationConfig
from repro.core.system import FlowerCDN
from repro.network.topology import Topology, TopologyConfig
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from tests.reference.directory import lookup_index
from tests.reference.workload import ResolvedQuery, answer


@pytest.fixture
def system() -> FlowerCDN:
    config = FlowerConfig(
        num_websites=2,
        active_websites=1,
        objects_per_website=20,
        num_localities=3,
        max_content_overlay_size=10,
        locality_bits=2,
        gossip=GossipConfig(
            gossip_period_s=300.0, view_size=5, gossip_length=3, push_threshold=0.2,
            keepalive_period_s=300.0,
        ),
        simulation_duration_s=7200.0,
        metrics_window_s=600.0,
    )
    topology = Topology(
        TopologyConfig(num_hosts=150, num_localities=3, locality_weights=(1.0, 1.0, 1.0)),
        RandomStreams(3),
    )
    sim = Simulator(seed=3, end_time=config.simulation_duration_s)
    cdn = FlowerCDN(config, sim, topology)
    cdn.bootstrap()
    return cdn


def issue_queries(system: FlowerCDN, locality: int, object_index: int, count: int) -> None:
    website = system.catalog.websites[0]
    free = [
        h for h in system.topology.hosts_in_locality(locality)
        if h not in system.reserved_hosts
    ]
    for i in range(count):
        answer(
            system,
            ResolvedQuery(
                query_id=locality * 1000 + object_index * 100 + i,
                time=system.sim.now,
                website=website.name,
                object_id=website.object_id(object_index),
                locality=locality,
                client_host=free[i],
                is_new_client=True,
            )
        )


class TestReplicationConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"period_s": 0},
            {"top_k": 0},
            {"min_requests": 0},
            {"object_size_bytes": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ReplicationConfig(**kwargs)


class TestPopularityTracking:
    def test_directory_counts_requests(self, system):
        issue_queries(system, locality=0, object_index=4, count=5)
        website = system.catalog.websites[0].name
        directory = system.directory_for(website, 0)
        popular = directory.popular_objects(top_k=1)
        assert popular == [system.catalog.websites[0].object_id(4)]
        assert directory.request_count(popular[0]) >= 5

    def test_popular_objects_handles_empty_and_zero_k(self, system):
        website = system.catalog.websites[0].name
        directory = system.directory_for(website, 0)
        assert directory.popular_objects(3) == []
        assert directory.popular_objects(0) == []


class TestActiveReplicator:
    def test_popular_objects_are_pushed_to_neighbor_overlays(self, system):
        website = system.catalog.websites[0]
        # Locality 0 is hot for object 4; locality 1 has an overlay but no copy.
        issue_queries(system, locality=0, object_index=4, count=5)
        issue_queries(system, locality=1, object_index=9, count=2)
        replicator = ActiveReplicator(
            system, ReplicationConfig(period_s=600.0, top_k=2, min_requests=3)
        )
        replicator.start()
        system.sim.run(until=1300.0)

        assert replicator.replications_performed > 0
        target_directory = system.directory_for(website.name, 1)
        assert website.object_id(4) in target_directory.indexed_objects()
        # The copy physically exists at a content peer of the target overlay.
        holders = lookup_index(target_directory, website.object_id(4))
        assert holders
        holder = system.content_peer(holders[0])
        assert holder.locality == 1
        assert holder.has_object(website.object_id(4))

    def test_objects_below_request_threshold_are_not_replicated(self, system):
        issue_queries(system, locality=0, object_index=4, count=1)
        issue_queries(system, locality=1, object_index=9, count=1)
        replicator = ActiveReplicator(
            system, ReplicationConfig(period_s=600.0, top_k=2, min_requests=10)
        )
        replicator.start()
        system.sim.run(until=1300.0)
        assert replicator.replications_performed == 0

    def test_no_replication_into_empty_overlays(self, system):
        issue_queries(system, locality=0, object_index=4, count=5)
        replicator = ActiveReplicator(
            system, ReplicationConfig(period_s=600.0, top_k=1, min_requests=3)
        )
        replicator.start()
        system.sim.run(until=1300.0)
        # Localities 1 and 2 have no content peers, so nothing can be pushed there.
        assert all(event.target_locality == 0 for event in replicator.events)

    def test_replication_traffic_is_accounted(self, system):
        issue_queries(system, locality=0, object_index=4, count=5)
        issue_queries(system, locality=1, object_index=9, count=2)
        replicator = ActiveReplicator(
            system, ReplicationConfig(period_s=600.0, top_k=2, min_requests=3)
        )
        replicator.start()
        system.sim.run(until=1300.0)
        if replicator.replications_performed:
            assert system.bandwidth.messages_by_category().get("replication", 0) > 0

    def test_replication_is_idempotent_across_rounds(self, system):
        website = system.catalog.websites[0]
        issue_queries(system, locality=0, object_index=4, count=5)
        issue_queries(system, locality=1, object_index=9, count=2)
        replicator = ActiveReplicator(
            system, ReplicationConfig(period_s=300.0, top_k=1, min_requests=3)
        )
        replicator.start()
        system.sim.run(until=2000.0)
        pushes_of_object = [
            event
            for event in replicator.events
            if event.object_id == website.object_id(4) and event.target_locality == 1
        ]
        assert len(pushes_of_object) <= 1

    def test_start_stop(self, system):
        replicator = ActiveReplicator(system)
        replicator.start()
        replicator.start()  # idempotent
        replicator.stop()
        replicator.stop()
        assert replicator.replications_performed == 0
