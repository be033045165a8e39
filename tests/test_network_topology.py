"""Unit tests for the synthetic latency topology."""

import pytest

from repro.network.topology import (
    JITTER_MS,
    MAX_LATENCY_MS,
    MIN_LATENCY_MS,
    Topology,
    TopologyConfig,
)
from repro.sim.rng import RandomStreams


@pytest.fixture
def topology() -> Topology:
    config = TopologyConfig(num_hosts=300, num_localities=4)
    return Topology(config, RandomStreams(5))


class TestTopologyConfig:
    def test_rejects_invalid_host_count(self):
        with pytest.raises(ValueError):
            TopologyConfig(num_hosts=0)

    def test_latency_band_leaves_room_for_the_jitter(self):
        assert 0 < MIN_LATENCY_MS < MIN_LATENCY_MS + 2 * JITTER_MS < MAX_LATENCY_MS

    def test_rejects_mismatched_weights(self):
        with pytest.raises(ValueError):
            TopologyConfig(num_localities=3, locality_weights=(0.5, 0.5))

    @pytest.mark.parametrize(
        "weights",
        [(0.0, 0.0, 0.0), (-1.0, 1.0, 1.0), (1.0, float("nan"), 1.0), (1.0, float("inf"), 1.0)],
    )
    def test_rejects_unusable_weights_at_construction(self, weights):
        with pytest.raises(ValueError, match="locality_weights"):
            TopologyConfig(num_localities=3, locality_weights=weights)

    def test_default_weights_are_normalised_and_skewed(self):
        config = TopologyConfig(num_localities=4)
        weights = config.effective_weights()
        assert sum(weights) == pytest.approx(1.0)
        assert weights[0] > weights[-1]

    def test_explicit_weights_are_normalised(self):
        config = TopologyConfig(num_localities=2, locality_weights=(3.0, 1.0))
        assert config.effective_weights() == pytest.approx((0.75, 0.25))


class TestTopologyStructure:
    def test_every_host_gets_a_locality(self, topology: Topology):
        assert topology.num_hosts == 300
        for host in topology.hosts():
            assert 0 <= host.locality < topology.num_localities

    def test_locality_populations_cover_all_hosts(self, topology: Topology):
        members = [
            host_id
            for locality in range(topology.num_localities)
            for host_id in topology.hosts_in_locality(locality)
        ]
        assert sorted(members) == list(range(topology.num_hosts))

    def test_populations_are_non_uniform_by_default(self, topology: Topology):
        populations = [
            len(topology.hosts_in_locality(locality))
            for locality in range(topology.num_localities)
        ]
        assert max(populations) > min(populations)

    def test_hosts_in_locality_consistent_with_locality_of(self, topology: Topology):
        for locality in range(topology.num_localities):
            for host_id in topology.hosts_in_locality(locality):
                assert topology.locality_of(host_id) == locality

    def test_same_seed_reproduces_topology(self):
        config = TopologyConfig(num_hosts=100, num_localities=3)
        a = Topology(config, RandomStreams(9))
        b = Topology(config, RandomStreams(9))
        assert [h.locality for h in a.hosts()] == [h.locality for h in b.hosts()]
        assert a.latency_ms(3, 77) == b.latency_ms(3, 77)


class TestLatencies:
    def test_latency_is_zero_to_self(self, topology: Topology):
        assert topology.latency_ms(5, 5) == 0.0

    def test_latency_is_symmetric(self, topology: Topology):
        for a, b in [(0, 10), (3, 250), (100, 299)]:
            assert topology.latency_ms(a, b) == pytest.approx(topology.latency_ms(b, a))

    def test_latency_within_configured_bounds(self, topology: Topology):
        for a in range(0, 300, 37):
            for b in range(1, 300, 41):
                if a == b:
                    continue
                latency = topology.latency_ms(a, b)
                assert MIN_LATENCY_MS <= latency <= MAX_LATENCY_MS

    def test_intra_locality_latency_lower_than_inter(self, topology: Topology):
        hosts_0 = topology.hosts_in_locality(0)
        intra_pairs = list(zip(hosts_0, hosts_0[1:50]))
        intra = sum(topology.latency_ms(a, b) for a, b in intra_pairs) / len(intra_pairs)
        hosts_2 = topology.hosts_in_locality(2)
        inter = sum(
            topology.latency_ms(a, b) for a, b in zip(hosts_0[:50], hosts_2[:50])
        ) / min(50, len(hosts_0), len(hosts_2))
        assert intra < inter

    def test_latency_is_deterministic_for_a_pair(self, topology: Topology):
        assert topology.latency_ms(10, 20) == topology.latency_ms(10, 20)
