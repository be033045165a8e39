"""Unit tests for the latency model: peer registration and message delay."""

import pytest

from repro.network.latency import LatencyModel
from repro.network.topology import Topology, TopologyConfig
from repro.sim.rng import RandomStreams


@pytest.fixture
def topology() -> Topology:
    config = TopologyConfig(num_hosts=240, num_localities=4, intra_locality_spread_ms=20.0)
    return Topology(config, RandomStreams(21))


class TestLandmarkBinner:
    def test_binning_recovers_true_localities(self, topology: Topology):
        """The paper assumes peers can detect their locality from latency
        measurements: binning every host by its nearest landmark (one host per
        locality) recovers the locality placement assigned it."""
        landmarks = [
            topology.hosts_in_locality(locality)[0]
            for locality in range(topology.num_localities)
        ]
        correct = sum(
            topology.locality_of(min(landmarks, key=lambda mark: topology.latency_ms(host, mark)))
            == topology.locality_of(host)
            for host in range(topology.num_hosts)
        )
        assert correct / topology.num_hosts > 0.9


class TestLatencyModel:
    def test_register_and_query_latency(self, topology: Topology):
        model = LatencyModel(topology)
        model.register_peer("a", 1)
        model.register_peer("b", 2)
        assert model.latency_ms("a", "b") == topology.latency_ms(1, 2)

    def test_unregistered_peer_raises(self, topology: Topology):
        model = LatencyModel(topology)
        with pytest.raises(KeyError):
            model.latency_ms("ghost", "ghost")

    def test_register_invalid_host_raises(self, topology: Topology):
        model = LatencyModel(topology)
        with pytest.raises(ValueError):
            model.register_peer("a", topology.num_hosts + 5)

    def test_server_latency_defaults_to_max_latency(self, topology: Topology):
        model = LatencyModel(topology)
        assert model.server_latency_ms == topology.config.max_latency_ms
        assert model.fork().server_latency_ms == topology.config.max_latency_ms

    def test_reregistering_peer_moves_it(self, topology: Topology):
        model = LatencyModel(topology)
        model.register_peer("a", 0)
        model.register_peer("a", 5)
        assert model.host_of("a") == 5
