"""Unit tests for the Squirrel baseline."""

import pytest

from repro.baselines.squirrel import (
    DIRECTORY_CAPACITY,
    ID_BITS,
    MAX_REDIRECTION_ATTEMPTS,
    Squirrel,
)
from repro.metrics.collectors import MetricsCollector, QueryOutcome
from repro.network.topology import Topology, TopologyConfig
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from tests.reference.workload import ResolvedQuery, answer


@pytest.fixture
def topology() -> Topology:
    return Topology(
        TopologyConfig(num_hosts=150, num_localities=3, locality_weights=(1.0, 1.0, 1.0)),
        RandomStreams(19),
    )


@pytest.fixture
def squirrel(topology: Topology) -> Squirrel:
    system = Squirrel(Simulator(seed=2), topology)
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


class TestDirectoryStrategy:
    def test_requires_bootstrap(self, topology):
        system = Squirrel(Simulator(seed=1), topology)
        with pytest.raises(RuntimeError):
            answer(system, query(0, 0))

    def test_first_query_misses_and_registers_downloader(self, squirrel):
        record = answer(squirrel, query(0, host=0))
        assert record.outcome is QueryOutcome.SERVER_MISS
        assert record.provider is None
        assert squirrel.num_peers == 1
        # The requester is now a downloader pointer for the object.
        second = answer(squirrel, query(1, host=1))
        assert second.outcome is QueryOutcome.PEER_HIT

    def test_second_requester_is_redirected_to_first_downloader(self, squirrel):
        answer(squirrel, query(0, host=0))
        record = answer(squirrel, query(1, host=1))
        assert record.provider == "sq@0"
        assert record.transfer_distance_ms == squirrel.topology.latency_ms(1, 0)

    def test_repeat_query_served_from_own_cache(self, squirrel):
        answer(squirrel, query(0, host=0))
        record = answer(squirrel, query(1, host=0))
        assert record.outcome is QueryOutcome.PEER_HIT
        assert record.lookup_latency_ms == 0.0
        assert record.overlay_hops == 0

    def test_lookup_latency_accumulates_dht_hops(self, squirrel):
        for host in range(20):
            answer(squirrel, query(host, host=host, object_index=host))
        record = answer(squirrel, query(99, host=30, object_index=5))
        assert record.overlay_hops >= 1
        assert record.lookup_latency_ms > 0

    def test_every_query_routes_through_dht(self, squirrel):
        """Squirrel has no locality shortcut: non-cached queries always pay DHT hops."""
        answer(squirrel, query(0, host=0, object_index=7))
        for i, host in enumerate(range(1, 10)):
            record = answer(squirrel, query(i + 1, host=host, object_index=7))
            assert record.outcome is QueryOutcome.PEER_HIT
            assert record.lookup_latency_ms > 0

    def test_directory_capacity_bounds_pointers(self, topology):
        system = Squirrel(Simulator(seed=3), topology)
        system.bootstrap()
        for host in range(DIRECTORY_CAPACITY + 1):
            answer(system, query(host, host=host, object_index=0))
        pointers = list(system._directories.values())  # noqa: SLF001
        assert [len(p) for p in pointers] == [DIRECTORY_CAPACITY]

    def test_stale_pointer_is_dropped_after_failure(self, squirrel):
        answer(squirrel, query(0, host=0))
        provider = squirrel.peer_for_host(0)
        provider.alive = False
        record = answer(squirrel, query(1, host=1))
        assert record.outcome is QueryOutcome.SERVER_MISS
        assert record.redirection_failures >= 1

    def test_redirection_gives_up_after_max_attempts(self, squirrel):
        downloaders = list(range(DIRECTORY_CAPACITY))
        for host in downloaders:
            answer(squirrel, query(host, host=host))
        for host in downloaders:
            squirrel.peer_for_host(host).alive = False
        requester = DIRECTORY_CAPACITY
        record = answer(squirrel, query(requester, host=requester))
        assert record.outcome is QueryOutcome.SERVER_MISS
        assert record.redirection_failures == MAX_REDIRECTION_ATTEMPTS
        # the tried pointers are dropped, the untried oldest one stays
        [pointers] = squirrel._directories.values()  # noqa: SLF001
        assert pointers == [
            squirrel.peer_for_host(requester).peer_id,
            squirrel.peer_for_host(downloaders[0]).peer_id,
        ]

    def test_metrics_recorded_per_query(self, squirrel):
        metrics = MetricsCollector()
        answer(squirrel, query(0, host=0), metrics)
        answer(squirrel, query(1, host=1), metrics)
        assert metrics.num_queries == 2
        assert 0 < metrics.hit_ratio < 1
        assert not hasattr(squirrel, "metrics")

    def test_process_query_returns_the_row(self, squirrel):
        metrics = MetricsCollector()
        records = [
            answer(squirrel, query(index, host=index % 3, time=float(index)), metrics)
            for index in range(6)
        ]
        assert records == list(metrics.records)
        probe = query(6, host=5, time=6.0)
        row = squirrel.process_query(
            probe.website, probe.object_id, probe.locality, probe.client_host
        )
        assert metrics.num_queries == 6
        assert row[0] is QueryOutcome.PEER_HIT  # host 5 asks for what hosts 0-2 hold
        assert len(row) == 6


class TestMembership:
    def test_peers_join_on_first_query_only(self, squirrel):
        answer(squirrel, query(0, host=0))
        answer(squirrel, query(1, host=0))
        assert squirrel.num_peers == 1
        answer(squirrel, query(2, host=1))
        assert squirrel.num_peers == 2

    def test_node_ids_are_unique(self, squirrel):
        for host in range(40):
            answer(squirrel, query(host, host=host))
        node_ids = [peer.node_id for peer in squirrel._peers.values()]  # noqa: SLF001
        assert len(node_ids) == len(set(node_ids))

    def test_node_ids_fit_the_ring(self, squirrel):
        for host in range(40):
            answer(squirrel, query(host, host=host))
        assert squirrel.idspace.bits == ID_BITS
        assert all(
            0 <= peer.node_id < 1 << ID_BITS
            for peer in squirrel._peers.values()  # noqa: SLF001
        )
