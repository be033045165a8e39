"""Unit tests for the churn injector."""

import pytest

from repro.core.churn import ChurnInjector, ChurnProfile
from repro.core.config import FlowerConfig, GossipConfig
from repro.core.system import FlowerCDN
from repro.network.topology import Topology, TopologyConfig
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from tests.reference.workload import ResolvedQuery, answer


@pytest.fixture
def system() -> FlowerCDN:
    config = FlowerConfig(
        num_websites=2,
        active_websites=1,
        objects_per_website=15,
        num_localities=2,
        max_content_overlay_size=10,
        locality_bits=2,
        gossip=GossipConfig(
            gossip_period_s=60.0, view_size=5, gossip_length=3, push_threshold=0.2,
            keepalive_period_s=60.0,
        ),
        simulation_duration_s=3600.0,
        metrics_window_s=600.0,
    )
    topology = Topology(
        TopologyConfig(num_hosts=120, num_localities=2, locality_weights=(1.0, 1.0)),
        RandomStreams(13),
    )
    sim = Simulator(seed=13, end_time=config.simulation_duration_s)
    cdn = FlowerCDN(config, sim, topology)
    cdn.bootstrap()
    return cdn


def populate(system: FlowerCDN, count: int = 6) -> None:
    website = system.catalog.websites[0]
    free = [h for h in system.topology.hosts_in_locality(0) if h not in system.reserved_hosts]
    for i in range(count):
        answer(
            system,
            ResolvedQuery(
                query_id=i, time=0.0, website=website.name,
                object_id=website.object_id(i % website.num_objects),
                locality=0, client_host=free[i], is_new_client=True,
            )
        )


class TestChurnProfile:
    def test_validation(self, system):
        for rate in ("content", "directory"):
            with pytest.raises(ValueError, match=f"{rate}_failures_per_hour"):
                ChurnProfile(**{f"{rate}_failures_per_hour": -1})
        with pytest.raises(ValueError, match="locality_changes_per_hour"):
            ChurnProfile(locality_changes_per_hour=-1)
        # The tick period is the injector's process period, checked there.
        for period in (0.0, -60.0):
            injector = ChurnInjector(system, ChurnProfile(content_failures_per_hour=1.0), period)
            with pytest.raises(ValueError, match="period must be positive"):
                injector.start()

    def test_is_enabled(self):
        assert not ChurnProfile().is_enabled
        assert ChurnProfile(content_failures_per_hour=1.0).is_enabled
        assert ChurnProfile(directory_failures_per_hour=1.0).is_enabled
        assert ChurnProfile(locality_changes_per_hour=1.0).is_enabled


class TestChurnInjector:
    def test_disabled_injector_never_starts(self, system):
        injector = ChurnInjector(system, ChurnProfile())
        injector.start()
        system.sim.run(until=600.0)
        assert injector.events_injected == 0

    def test_content_failures_are_injected(self, system):
        populate(system)
        injector = ChurnInjector(
            system, ChurnProfile(content_failures_per_hour=120.0), tick_period_s=60.0
        )
        injector.start()
        system.sim.run(until=1800.0)
        kinds = {entry.kind for entry in injector.log}
        assert injector.events_injected > 0
        assert "content_failure" in kinds
        failed = [p for p in system._content_peers.values() if not p.alive]  # noqa: SLF001
        assert failed

    def test_directory_failures_trigger_replacement(self, system):
        populate(system)
        injector = ChurnInjector(
            system,
            ChurnProfile(directory_failures_per_hour=60.0), tick_period_s=60.0,
        )
        injector.start()
        system.sim.run(until=3000.0)
        directory_events = [e for e in injector.log if e.kind == "directory_failure"]
        assert directory_events
        # The replacement protocol must have restored a live directory.
        website = system.catalog.websites[0].name
        directory = system.directory_for(website, 0)
        assert directory is not None and directory.alive

    def test_locality_changes_move_peers(self, system):
        populate(system)
        injector = ChurnInjector(
            system, ChurnProfile(locality_changes_per_hour=120.0), tick_period_s=60.0
        )
        injector.start()
        system.sim.run(until=1800.0)
        moves = [e for e in injector.log if e.kind == "locality_change"]
        assert moves
        website = system.catalog.websites[0].name
        assert system.overlay_members(website, 1), "some peer must have moved to locality 1"

    def test_stop_halts_injection(self, system):
        populate(system)
        injector = ChurnInjector(
            system, ChurnProfile(content_failures_per_hour=600.0), tick_period_s=30.0
        )
        injector.start()
        system.sim.run(until=300.0)
        count = injector.events_injected
        injector.stop()
        system.sim.run(until=1200.0)
        assert injector.events_injected == count

    def test_fractional_rates_average_out(self, system):
        populate(system, count=8)
        injector = ChurnInjector(
            system, ChurnProfile(content_failures_per_hour=6.0), tick_period_s=60.0
        )
        injector.start()
        system.sim.run(until=3600.0)
        # Six failures per hour expected; allow generous slack but require activity.
        assert 1 <= injector.events_injected <= 12
