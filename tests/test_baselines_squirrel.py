"""Unit tests for the Squirrel baseline."""

import pytest

from repro.baselines.squirrel import Squirrel, SquirrelConfig, SquirrelStrategy
from repro.metrics.collectors import QueryOutcome
from repro.network.topology import Topology, TopologyConfig
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.workload.assignment import ResolvedQuery


@pytest.fixture
def topology() -> Topology:
    return Topology(
        TopologyConfig(num_hosts=150, num_localities=3, locality_weights=(1.0, 1.0, 1.0)),
        RandomStreams(19),
    )


@pytest.fixture
def squirrel(topology: Topology) -> Squirrel:
    system = Squirrel(SquirrelConfig(id_bits=16), Simulator(seed=2), topology)
    system.bootstrap()
    return system


def query(query_id: int, host: int, object_index: int = 0, time: float = 0.0) -> ResolvedQuery:
    return ResolvedQuery(
        query_id=query_id,
        time=time,
        website="site-000.example.org",
        object_id=f"http://site-000.example.org/object/{object_index}",
        locality=0,
        client_host=host,
        is_new_client=True,
    )


class TestSquirrelConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"id_bits": 4},
            {"directory_capacity": 0},
            {"cache_capacity": 0},
            {"metrics_window_s": 0},
            {"max_redirection_attempts": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SquirrelConfig(**kwargs)


class TestDirectoryStrategy:
    def test_requires_bootstrap(self, topology):
        system = Squirrel(SquirrelConfig(), Simulator(seed=1), topology)
        with pytest.raises(RuntimeError):
            system.handle_query(query(0, 0))

    def test_first_query_misses_and_registers_downloader(self, squirrel):
        record = squirrel.handle_query(query(0, host=0))
        assert record.outcome is QueryOutcome.SERVER_MISS
        assert record.provider is None
        assert squirrel.num_peers == 1
        # The requester is now a downloader pointer for the object.
        second = squirrel.handle_query(query(1, host=1))
        assert second.outcome is QueryOutcome.PEER_HIT

    def test_second_requester_is_redirected_to_first_downloader(self, squirrel):
        squirrel.handle_query(query(0, host=0))
        record = squirrel.handle_query(query(1, host=1))
        assert record.provider == "sq@0"
        assert record.transfer_distance_ms == squirrel.topology.latency_ms(1, 0)

    def test_repeat_query_served_from_own_cache(self, squirrel):
        squirrel.handle_query(query(0, host=0))
        record = squirrel.handle_query(query(1, host=0))
        assert record.outcome is QueryOutcome.PEER_HIT
        assert record.lookup_latency_ms == 0.0
        assert record.overlay_hops == 0

    def test_lookup_latency_accumulates_dht_hops(self, squirrel):
        for host in range(20):
            squirrel.handle_query(query(host, host=host, object_index=host))
        record = squirrel.handle_query(query(99, host=30, object_index=5))
        assert record.overlay_hops >= 1
        assert record.lookup_latency_ms > 0

    def test_every_query_routes_through_dht(self, squirrel):
        """Squirrel has no locality shortcut: non-cached queries always pay DHT hops."""
        squirrel.handle_query(query(0, host=0, object_index=7))
        for i, host in enumerate(range(1, 10)):
            record = squirrel.handle_query(query(i + 1, host=host, object_index=7))
            assert record.outcome is QueryOutcome.PEER_HIT
            assert record.lookup_latency_ms > 0

    def test_directory_capacity_bounds_pointers(self, topology):
        system = Squirrel(SquirrelConfig(id_bits=16, directory_capacity=2),
                          Simulator(seed=3), topology)
        system.bootstrap()
        for host in range(5):
            system.handle_query(query(host, host=host, object_index=0))
        pointers = list(system._directories.values())  # noqa: SLF001
        assert pointers and all(len(p) <= 2 for p in pointers)

    def test_stale_pointer_is_dropped_after_failure(self, squirrel):
        squirrel.handle_query(query(0, host=0))
        provider = squirrel.peer_for_host(0)
        provider.alive = False
        record = squirrel.handle_query(query(1, host=1))
        assert record.outcome is QueryOutcome.SERVER_MISS
        assert record.redirection_failures >= 1

    def test_metrics_recorded_per_query(self, squirrel):
        squirrel.handle_query(query(0, host=0))
        squirrel.handle_query(query(1, host=1))
        assert squirrel.metrics.num_queries == 2
        assert 0 < squirrel.metrics.hit_ratio < 1

    def test_handle_query_returns_the_record_of_the_recorded_row(self, squirrel):
        records = [
            squirrel.handle_query(query(index, host=index % 3, time=float(index)))
            for index in range(6)
        ]
        assert records == list(squirrel.metrics.records)
        probe = query(6, host=5, time=6.0)
        row = squirrel.process_query(
            probe.query_id, probe.time, probe.website, probe.object_id,
            probe.locality, probe.client_host,
        )
        last = squirrel.metrics.records[-1]
        assert row == (
            last.outcome, last.lookup_latency_ms, last.transfer_distance_ms,
            last.overlay_hops, last.provider, last.redirection_failures,
        )


class TestHomeStoreStrategy:
    @pytest.fixture
    def home_store(self, topology) -> Squirrel:
        system = Squirrel(
            SquirrelConfig(id_bits=16, strategy=SquirrelStrategy.HOME_STORE),
            Simulator(seed=4),
            topology,
        )
        system.bootstrap()
        return system

    def test_home_node_serves_after_first_miss(self, home_store):
        home_store.handle_query(query(0, host=0))
        record = home_store.handle_query(query(1, host=1))
        assert record.outcome is QueryOutcome.PEER_HIT
        assert record.provider is not None and record.provider.startswith("sq@")

    def test_home_node_caches_the_object_itself(self, home_store):
        home_store.handle_query(query(0, host=0))
        record = home_store.handle_query(query(1, host=1))
        provider_host = int(record.provider.split("@")[1])
        provider = home_store.peer_for_host(provider_host)
        assert provider.has_object("http://site-000.example.org/object/0")


class TestMembership:
    def test_peers_join_on_first_query_only(self, squirrel):
        squirrel.handle_query(query(0, host=0))
        squirrel.handle_query(query(1, host=0))
        assert squirrel.num_peers == 1
        squirrel.handle_query(query(2, host=1))
        assert squirrel.num_peers == 2

    def test_node_ids_are_unique(self, squirrel):
        for host in range(40):
            squirrel.handle_query(query(host, host=host))
        node_ids = [peer.node_id for peer in squirrel._peers.values()]  # noqa: SLF001
        assert len(node_ids) == len(set(node_ids))
