"""Tests for the reachability layer: models, the delivery gate, recovery.

Covers the pure models (`repro.network.reachability`), the FlowerCDN
delivery gate (suspicion backoff, graceful degradation, reconciliation) and
the two golden-pinned invariants of the subsystem:

* with no model attached — or with a non-emitting model such as the
  gossip-loss fault's — digests stay byte-identical to the pre-gate code;
* the partition-heal-reconcile golden records an actual dip-and-recovery.
"""

import random
from types import SimpleNamespace

import pytest

from repro.core.config import FlowerConfig, GossipConfig
from repro.core.replication import ActiveReplicator, ReplicationConfig
from repro.core.system import FlowerCDN
from repro.metrics.collectors import QueryOutcome
from repro.network.reachability import (
    MESSAGE_KINDS,
    REDIRECT_TIMEOUT_MS,
    SUSPICION_BACKOFF_MAX_S,
    SUSPICION_BACKOFF_S,
    DeliveryGate,
    DeliveryStats,
    HostOutage,
    LinkLoss,
    LocalityPartition,
    ReachabilityModel,
)
from repro.network.topology import Topology, TopologyConfig
from repro.scenarios.golden import compute_golden_digest, load_golden
from repro.scenarios.library import get_scenario
from repro.scenarios.models import (
    ModelRef,
    register_fault_model,
    unregister_fault_model,
)
from repro.scenarios.runner import run_scenario, summarise_system
from repro.scenarios.spec import replace
from repro.session import Session
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.sim.sharded import run_blocks
from tests.reference.directory import reserved_hosts
from tests.reference.workload import ResolvedQuery, answer

TINY_SCALE = 0.1


# -- pure models --------------------------------------------------------------


def locality_of_map(mapping):
    return lambda host: mapping[host]


class TestLocalityPartition:
    def partition(self, asymmetric=False):
        # hosts 0-1 in locality 0 (partitioned), hosts 2-3 in locality 1
        return LocalityPartition(
            episodes=((100.0, 200.0),),
            localities=frozenset({0}),
            locality_of=locality_of_map({0: 0, 1: 0, 2: 1, 3: 1}),
            asymmetric=asymmetric,
        )

    def test_blocks_cross_boundary_only_during_episode(self):
        model = self.partition()
        assert model.allows("gossip", 0, 2, None, None, 50.0)
        assert not model.allows("gossip", 0, 2, None, None, 150.0)
        assert not model.allows("gossip", 2, 0, None, None, 150.0)
        assert model.allows("gossip", 0, 2, None, None, 250.0)

    def test_intra_partition_and_outside_traffic_unaffected(self):
        model = self.partition()
        assert model.allows("keepalive", 0, 1, None, None, 150.0)
        assert model.allows("keepalive", 2, 3, None, None, 150.0)

    def test_episodes_are_half_open(self):
        # A heal action scheduled exactly at the episode end must already
        # see the network whole.
        model = self.partition()
        assert not model.allows("push", 0, 2, None, None, 100.0)
        assert model.allows("push", 0, 2, None, None, 200.0)

    def test_asymmetric_blocks_only_outbound(self):
        model = self.partition(asymmetric=True)
        assert not model.allows("query", 0, 2, None, None, 150.0)
        assert model.allows("query", 2, 0, None, None, 150.0)

    def test_fault_windows_are_the_episodes(self):
        assert self.partition().fault_windows() == ((100.0, 200.0),)

    def test_rejects_bad_episodes_and_empty_localities(self):
        with pytest.raises(ValueError, match="start < end"):
            LocalityPartition(((200.0, 100.0),), frozenset({0}), lambda h: 0)
        with pytest.raises(ValueError, match="at least one locality"):
            LocalityPartition(((0.0, 1.0),), frozenset(), lambda h: 0)


class TestHostOutage:
    def test_blocks_messages_touching_a_down_host(self):
        model = HostOutage(((7, 100.0, 200.0),))
        assert model.allows("summary", 7, 8, None, None, 50.0)
        assert not model.allows("summary", 7, 8, None, None, 150.0)
        assert not model.allows("summary", 8, 7, None, None, 150.0)
        assert model.allows("summary", 8, 9, None, None, 150.0)
        assert model.allows("summary", 7, 8, None, None, 200.0)

    def test_fault_windows_merge_and_sort_all_spans(self):
        model = HostOutage(((9, 300.0, 400.0), (7, 100.0, 200.0)))
        assert model.fault_windows() == ((100.0, 200.0), (300.0, 400.0))

    def test_rejects_inverted_windows(self):
        with pytest.raises(ValueError, match="start < end"):
            HostOutage(((1, 5.0, 5.0),))


class TestLinkLoss:
    def test_total_loss_blocks_everything(self):
        model = LinkLoss(1.0, random.Random(1))
        assert not any(
            model.allows(kind, 0, 1, None, None, 0.0) for kind in MESSAGE_KINDS
        )

    def test_zero_loss_blocks_nothing(self):
        model = LinkLoss(0.0, random.Random(1))
        assert all(
            model.allows(kind, 0, 1, None, None, 0.0) for kind in MESSAGE_KINDS
        )

    def test_kind_filter_never_draws_for_other_kinds(self):
        model = LinkLoss(1.0, random.Random(1), kinds=("redirect",))
        assert model.allows("gossip", 0, 1, None, None, 0.0)
        assert not model.allows("redirect", 0, 1, None, None, 0.0)

    def test_rejects_bad_probability_and_unknown_kind(self):
        with pytest.raises(ValueError, match="drop_probability"):
            LinkLoss(1.5, random.Random(1))
        with pytest.raises(ValueError, match="unknown message kind"):
            LinkLoss(0.5, random.Random(1), kinds=("carrier-pigeon",))


class TestDeliveryStats:
    def test_counting_and_totals(self):
        stats = DeliveryStats()
        stats.count_delivered("gossip")
        stats.count_delivered("gossip")
        stats.count_blocked("redirect")
        assert sum(stats.delivered.values()) == 2
        assert stats.total_blocked == 1
        document = stats.to_dict()
        assert document["delivered"] == {"gossip": 2}
        assert document["blocked"] == {"redirect": 1}


# -- the system-level delivery gate -------------------------------------------


class _BlockKinds(ReachabilityModel):
    """Test model: block the given kinds unconditionally."""

    def __init__(self, *kinds: str) -> None:
        self._kinds = frozenset(kinds)

    def allows(self, kind, src_host, dst_host, src_id, dst_id, now) -> bool:
        return kind not in self._kinds


class _SilentAllowAll(ReachabilityModel):
    """Always-allow model that, like the gossip-loss fault's, emits no
    resilience metrics — runs under it must stay byte-identical."""

    emits_metrics = False


@pytest.fixture
def config() -> FlowerConfig:
    return FlowerConfig(
        num_websites=3,
        active_websites=2,
        objects_per_website=25,
        num_localities=3,
        max_content_overlay_size=8,
        locality_bits=2,
        content_miss_fallback="directory",
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


def enroll_peer(system: FlowerCDN, locality: int = 0):
    website = system.catalog.websites[0].name
    host = next(
        h for h in system.topology.hosts_in_locality(locality)
        if h not in reserved_hosts(system)
    )
    answer(
        system,
        ResolvedQuery(
            query_id=0,
            time=0.0,
            website=website,
            object_id=system.catalog.websites[0].object_ids()[0],
            locality=locality,
            client_host=host,
            is_new_client=True,
        )
    )
    return system.content_peer(f"c({website})@{host}")


class TestDeliveryGate:
    def test_attach_detach_round_trip(self, system: FlowerCDN):
        model = ReachabilityModel()
        system.attach_reachability(model)
        assert system.gate.model is model
        assert system.detach_reachability() is model
        assert system.gate is None
        # stats survive detachment for end-of-run reporting
        assert system.delivery_stats is not None

    def test_a_detached_gate_still_reports(self, system: FlowerCDN):
        partition = LocalityPartition(((100.0, 200.0),), frozenset({0}), lambda host: 0)
        system.attach_reachability(partition)
        gate = system.gate
        system.detach_reachability()
        assert system.gate is None
        assert system.delivery_stats is gate.stats
        assert system.resilience_windows() == ((100.0, 200.0),)
        system.attach_reachability(_SilentAllowAll())
        system.detach_reachability()
        assert system.resilience_windows() is None  # the last model reports no block

    def test_double_attach_rejected(self, system: FlowerCDN):
        system.attach_reachability(ReachabilityModel())
        with pytest.raises(RuntimeError, match="already attached"):
            system.attach_reachability(ReachabilityModel())

    def test_suspicion_backoff_doubles_and_saturates(self):
        base = SUSPICION_BACKOFF_S
        cap = SUSPICION_BACKOFF_MAX_S
        clock = SimpleNamespace(now=0.0)
        gate = DeliveryGate(ReachabilityModel(), clock)

        for _ in range(20):
            gate.suspect("c(x)@1")
        clock.now = cap - 1e-9
        assert gate.skips("c(x)@1")
        clock.now = cap
        assert not gate.skips("c(x)@1")
        clock.now = 10.0
        gate.suspect("c(y)@2")
        gate.suspect("c(y)@2")
        clock.now = 10.0 + 2 * base - 1e-9
        assert gate.skips("c(y)@2")
        clock.now = 10.0 + 2 * base
        assert not gate.skips("c(y)@2")
        clock.now = 10.0
        gate.clear_suspicion("c(y)@2")
        assert not gate.skips("c(y)@2")
        gate.suspect("c(y)@2")  # the streak starts over
        clock.now = 10.0 + base
        assert not gate.skips("c(y)@2")
        assert gate.stats.suspicion_skips == 2

    def test_fall_back_counts_and_charges_the_timeout(self):
        gate = DeliveryGate(ReachabilityModel(), SimpleNamespace(now=0.0))
        assert gate.fall_back() == REDIRECT_TIMEOUT_MS
        assert gate.fall_back() == REDIRECT_TIMEOUT_MS
        assert gate.stats.server_fallbacks == 2

    def test_unreachable_directory_degrades_to_server_without_replacement(
        self, system: FlowerCDN
    ):
        peer = enroll_peer(system)
        website = peer.website
        directory_before = system.directory_for(website, 0)
        system.attach_reachability(_BlockKinds("query", "redirect"))
        record = answer(
            system,
            ResolvedQuery(
                query_id=1,
                time=10.0,
                website=website,
                object_id=system.catalog.websites[0].object_ids()[1],
                locality=0,
                client_host=peer.host_id,
                is_new_client=False,
            )
        )
        assert record.outcome is QueryOutcome.SERVER_MISS
        assert record.lookup_latency_ms >= REDIRECT_TIMEOUT_MS
        assert system.delivery_stats.server_fallbacks == 1
        # Graceful degradation: the directory is alive-but-unreachable and
        # must NOT be replaced via the Section 5.2 protocol.
        directory_after = system.directory_for(website, 0)
        assert directory_after is directory_before
        assert directory_after.alive
        assert system.directory_replacements == 0

    def test_reconcile_counts_and_clears_suspicion(self, system: FlowerCDN):
        enroll_peer(system)
        system.attach_reachability(ReachabilityModel())
        system.gate.suspect("c(x)@1")
        system.reconcile((0,))
        assert system.delivery_stats.reconciliations == 1
        assert not system.gate.skips("c(x)@1")
        # reconciliation keepalives went through the gate
        assert system.delivery_stats.delivered.get("keepalive", 0) >= 1


# -- end-to-end invariants ----------------------------------------------------


class TestGateInvariants:
    def test_non_emitting_allow_all_model_is_byte_identical(self):
        class _AlwaysReachable:
            """Attaches the silent allow-all model for the whole run."""

            def attach(self, system, spec):
                class _Injector:
                    def __init__(self):
                        self.log = []

                    def start(self):
                        system.attach_reachability(_SilentAllowAll())

                    def stop(self):
                        system.detach_reachability()

                return _Injector()

        register_fault_model("test-always-reachable", _AlwaysReachable)
        try:
            base = get_scenario("paper-default").scaled(TINY_SCALE)
            gated = replace(base, fault_model=ModelRef.of("test-always-reachable"))
            baseline = run_scenario(base, seed=7).metrics_digest()
            through_gate = run_scenario(gated, seed=7).metrics_digest()
            through_gate["scenario"] = baseline["scenario"]
            assert through_gate == baseline
        finally:
            unregister_fault_model("test-always-reachable")

    def test_every_message_kind_passes_the_one_gate(self):
        """Query path, upkeep and the replicator all consult ``system.gate``:
        a recording allow-all model sees all eight kinds, delivers the pinned
        per-kind counts, and changes no byte."""

        class _Recording(_SilentAllowAll):
            def __init__(self):
                self.kinds = set()

            def allows(self, kind, src_host, dst_host, src_id, dst_id, now):
                self.kinds.add(kind)
                return True

        spec = replace(
            get_scenario("multi-locality").scaled(0.25), content_miss_fallback="directory"
        )
        model = _Recording()

        def replicate(system):
            return ActiveReplicator(system, ReplicationConfig(period_s=600.0, min_requests=1))

        def gate(system):
            injector = SimpleNamespace(log=[])
            injector.start = lambda: system.attach_reachability(model)
            injector.stop = system.detach_reachability
            return injector

        def run(*attachments):
            session = Session(spec, seed=42)
            result, _stats = run_blocks(
                session.experiment, None, (session.attach_models, replicate, *attachments)
            )
            digest = summarise_system(spec, "flower", result).to_dict()
            return digest, session.experiment.last_flower_system

        ungated, _ = run()
        gated, system = run(gate)
        assert model.kinds == set(MESSAGE_KINDS)
        assert system.delivery_stats.delivered == {
            "dring": 66, "gossip": 84, "keepalive": 84, "push": 1081,
            "query": 1492, "redirect": 1374, "replication": 35, "summary": 20,
        }
        assert not system.delivery_stats.blocked
        assert gated == ungated

    def test_gossip_lossy_golden_still_byte_identical(self):
        # Satellite pin: PR 5's gossip-loss filter now routes through the
        # delivery gate; its committed golden must match without refresh.
        assert compute_golden_digest("gossip-lossy") == load_golden("gossip-lossy")

    def test_stationary_link_loss_reports_counters_without_windows(self):
        spec = replace(
            get_scenario("paper-default").scaled(TINY_SCALE),
            fault_model=ModelRef.of(
                "link-loss", drop_probability=1.0, kinds=("redirect",)
            ),
        )
        metrics = run_scenario(spec, seed=7).flower.metrics
        assert metrics["resilience_messages_blocked"] > 0
        assert metrics["resilience_retries_exhausted"] > 0
        assert metrics["resilience_time_to_recover_s"] == -1.0
        assert metrics["resilience_hit_ratio_pre_fault"] == -1.0

    def test_partition_heal_golden_shows_dip_and_recovery(self):
        metrics = load_golden("partition-heal-reconcile")["systems"]["flower"]["metrics"]
        assert metrics["resilience_reconciliations"] == 1
        assert metrics["resilience_messages_blocked"] > 0
        # availability dips inside the fault window...
        assert (
            metrics["resilience_availability_during_fault"]
            < metrics["resilience_hit_ratio_pre_fault"]
        )
        # ...and the hit ratio recovers within a bounded time after the heal
        assert metrics["resilience_time_to_recover_s"] >= 0.0

    def test_faulted_runs_are_deterministic(self):
        spec = get_scenario("partition-heal-reconcile").scaled(TINY_SCALE)
        first = run_scenario(spec, seed=11).metrics_digest()
        second = run_scenario(spec, seed=11).metrics_digest()
        assert first == second
