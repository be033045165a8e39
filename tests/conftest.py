"""Shared fixtures for the test suite.

Most tests use a deliberately small configuration (few websites, few
localities, short durations) so the whole suite stays fast while still
exercising the same code paths as the paper-scale experiments.
"""

from __future__ import annotations

import pytest

from repro.core.config import FlowerConfig, GossipConfig
from repro.network.latency import LatencyModel
from repro.network.topology import Topology, TopologyConfig
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.workload.catalog import Catalog


@pytest.fixture
def streams() -> RandomStreams:
    return RandomStreams(master_seed=1234)


@pytest.fixture
def small_topology(streams: RandomStreams) -> Topology:
    config = TopologyConfig(num_hosts=120, num_localities=3, intra_locality_spread_ms=20.0)
    return Topology(config, streams)


@pytest.fixture
def latency_model(small_topology: Topology) -> LatencyModel:
    return LatencyModel(small_topology)


@pytest.fixture
def simulator() -> Simulator:
    return Simulator(seed=7)


class RecordingSimulator(Simulator):
    """Records ``(label, first firing time)`` of every periodic activity."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.starts = []

    def call_every(self, period, callback, start=None, label=""):
        self.starts.append((label, start))
        return super().call_every(period, callback, start=start, label=label)


@pytest.fixture
def recording_simulator() -> type:
    """The :class:`RecordingSimulator` class, for tests that pick the seed."""
    return RecordingSimulator


@pytest.fixture
def small_config() -> FlowerConfig:
    return FlowerConfig(
        num_websites=4,
        active_websites=2,
        objects_per_website=30,
        num_localities=3,
        max_content_overlay_size=10,
        locality_bits=3,
        website_bits=13,
        gossip=GossipConfig(
            gossip_period_s=60.0,
            view_size=8,
            gossip_length=4,
            push_threshold=0.2,
            keepalive_period_s=60.0,
            dead_age=3,
        ),
        simulation_duration_s=1800.0,
        metrics_window_s=300.0,
        seed=11,
    )


@pytest.fixture
def small_catalog(small_config: FlowerConfig) -> Catalog:
    return Catalog.synthetic(small_config.num_websites, small_config.objects_per_website)
