"""Recovery-path tests: peer fail/recover round-trips, contact forgetting
and directory replacement under repeated failures (Section 5 machinery)."""

import gc
import random

import pytest

from repro.core.config import FlowerConfig, GossipConfig
from repro.core.content_peer import ContentPeer
from repro.core.system import FlowerCDN
from repro.network.topology import Topology, TopologyConfig
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams, derive_seed
from tests.reference.workload import ResolvedQuery, answer


@pytest.fixture
def config() -> FlowerConfig:
    return FlowerConfig(
        num_websites=3,
        active_websites=2,
        objects_per_website=25,
        num_localities=3,
        max_content_overlay_size=8,
        locality_bits=2,
        gossip=GossipConfig(
            gossip_period_s=60.0, view_size=6, gossip_length=3, push_threshold=0.2,
            keepalive_period_s=60.0,
        ),
        simulation_duration_s=3600.0,
        metrics_window_s=300.0,
    )


@pytest.fixture
def system(config: FlowerConfig) -> FlowerCDN:
    topology = Topology(
        TopologyConfig(
            num_hosts=300,
            num_localities=config.num_localities,
            locality_weights=(1.0, 1.0, 1.0),
        ),
        RandomStreams(31),
    )
    sim = Simulator(seed=5, end_time=config.simulation_duration_s)
    cdn = FlowerCDN(config, sim, topology)
    cdn.bootstrap()
    return cdn


def enroll(system: FlowerCDN, locality: int = 0, offset: int = 0) -> ContentPeer:
    website = system.catalog.websites[0].name
    hosts = [
        h for h in system.topology.hosts_in_locality(locality)
        if h not in system.reserved_hosts
    ]
    host = hosts[offset]
    answer(
        system,
        ResolvedQuery(
            query_id=offset,
            time=float(offset),
            website=website,
            object_id=system.catalog.websites[0].object_id(offset),
            locality=locality,
            client_host=host,
            is_new_client=True,
        )
    )
    return system.content_peer(f"c({website})@{host}")


class TestFailRecoverRoundTrip:
    def test_peer_level_round_trip(self, system: FlowerCDN):
        peer = enroll(system)
        assert peer.alive
        peer.fail()
        assert not peer.alive
        peer.alive = True
        assert peer.alive

    def test_system_fail_is_idempotent_until_recovery(self, system: FlowerCDN):
        peer = enroll(system)
        assert system.fail_content_peer(peer.peer_id)
        # already dead: a second failure is a no-op
        assert not system.fail_content_peer(peer.peer_id)
        peer.alive = True
        assert system.fail_content_peer(peer.peer_id)

    def test_failed_peer_keeps_identity_across_recovery(self, system: FlowerCDN):
        peer = enroll(system)
        objects_before = set(peer.objects)
        system.fail_content_peer(peer.peer_id)
        peer.alive = True
        assert set(peer.objects) == objects_before
        assert system.content_peer(peer.peer_id) is peer


class TestForgetContact:
    def test_clears_directory_binding(self, system: FlowerCDN):
        peer = enroll(system)
        directory_id = peer.directory_peer_id
        assert directory_id is not None
        peer.forget_contact(directory_id)
        assert peer.directory_peer_id is None

    def test_forgetting_other_contacts_keeps_directory(self, system: FlowerCDN):
        peer = enroll(system)
        directory_id = peer.directory_peer_id
        peer.forget_contact("c(nobody)@999")
        assert peer.directory_peer_id == directory_id


class TestRepeatedDirectoryReplacement:
    def test_replacement_survives_repeated_failures(self, system: FlowerCDN):
        website = system.catalog.websites[0].name
        enroll(system, offset=0)
        enroll(system, offset=1)
        original = system.directory_for(website, 0)
        generations = [original.peer_id]
        for round_number in range(1, 3):
            assert system.fail_directory(website, 0)
            # the next keepalive detects the failure and repairs (Section 5.2)
            system.sim.run(until=200.0 * round_number)
            replacement = system.directory_for(website, 0)
            assert replacement is not None
            assert replacement.alive
            assert replacement.peer_id not in generations
            # the D-ring identifier is preserved across every generation
            assert replacement.node_id == original.node_id
            generations.append(replacement.peer_id)
        assert system.directory_replacements == 2

    def test_fail_directory_on_dead_directory_returns_false(self, system: FlowerCDN):
        website = system.catalog.websites[0].name
        enroll(system)
        assert system.fail_directory(website, 0)
        assert not system.fail_directory(website, 0)


class TestJitterStreamsAcrossReEnrolment:
    """Start phases come from per-peer streams that are no longer retained;
    a peer or directory that starts again must still draw what a retained
    ``jitter:*`` stream would have given it (the goldens depend on it)."""

    @pytest.fixture
    def recorded(self, config: FlowerConfig, recording_simulator) -> FlowerCDN:
        topology = Topology(
            TopologyConfig(num_hosts=300, num_localities=3, locality_weights=(1.0, 1.0, 1.0)),
            RandomStreams(31),
        )
        cdn = FlowerCDN(config, recording_simulator(seed=5, end_time=3600.0), topology)
        cdn.bootstrap()
        return cdn

    @staticmethod
    def retained(name: str, period: float = 60.0):
        stream = random.Random(derive_seed(5, name))
        return lambda: stream.uniform(0.0, period)

    def test_change_locality_draws_the_second_phase_of_the_same_streams(self, recorded):
        peer = enroll(recorded, locality=0)
        recorded.sim.run(until=100.0)
        assert recorded.change_locality(peer.peer_id, 1) == peer.peer_id
        gossip = self.retained(f"jitter:{peer.peer_id}")
        keepalive = self.retained(f"jitter:ka:{peer.peer_id}")
        starts = [entry for entry in recorded.sim.starts if entry[0].endswith(peer.peer_id)]
        assert starts == [
            (f"gossip:{peer.peer_id}", 0.0 + gossip()),
            (f"keepalive:{peer.peer_id}", 0.0 + keepalive()),
            (f"gossip:{peer.peer_id}", 100.0 + gossip()),
            (f"keepalive:{peer.peer_id}", 100.0 + keepalive()),
        ]

    def test_directory_replacement_draws_from_its_own_generation_stream(self, recorded):
        website = recorded.catalog.websites[0].name
        enroll(recorded, locality=0)
        replacement_id = recorded.leave_directory(website, 0)
        assert replacement_id == f"d({website},0)#1"
        ticks = dict(entry for entry in recorded.sim.starts if entry[0].startswith("dir-tick:"))
        for generation in (0, 1):
            name = f"d({website},0)#{generation}"
            assert ticks[f"dir-tick:{name}"] == self.retained(f"jitter:{name}")()

    def test_paper_population_retains_generators_per_overlay_not_per_peer(self):
        """600 directories + ~2000 content peers: ~4600 one-draw streams, none retained."""
        from repro.session import Session

        def generators() -> int:
            return sum(1 for obj in gc.get_objects() if type(obj) is random.Random)

        before = generators()
        sim, system = Session.from_name("paper-default-full-scale").build_flower()
        websites = system.catalog.websites[: system.config.active_websites]
        enrolled = 0
        for locality in range(system.config.num_localities):
            hosts = [
                host for host in system.topology.hosts_in_locality(locality)
                if host not in system.reserved_hosts
            ]
            for index, host in enumerate(hosts[:400]):
                website = websites[index % len(websites)]
                answer(
                    system,
                    ResolvedQuery(
                        query_id=enrolled, time=0.0, website=website.name,
                        object_id=website.object_id(index % 50), locality=locality,
                        client_host=host, is_new_client=True,
                    )
                )
                enrolled += 1
        assert system.num_directory_peers == 600
        assert system.num_content_peers == enrolled >= 2000
        overlays = len(websites) * system.config.num_localities
        assert generators() - before <= overlays + 8
        assert len(sim.streams.names()) >= 600 + 2 * enrolled
