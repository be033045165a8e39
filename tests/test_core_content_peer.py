"""Unit tests for content peers: storage, views, gossip (Alg. 4) and push (Alg. 5)."""

import random

import pytest

from repro.core.columns import SUMMARY_NUM_HASHES
from repro.core.config import FlowerConfig, GossipConfig
from repro.core.content_peer import ContentPeer, GossipMessage
from repro.core.maintenance import OverlayMaintenance
from repro.datastructures.bloom import BloomFilter


@pytest.fixture
def config() -> FlowerConfig:
    return FlowerConfig(
        num_websites=2,
        active_websites=1,
        objects_per_website=20,
        num_localities=2,
        max_content_overlay_size=10,
        locality_bits=2,
        gossip=GossipConfig(
            gossip_period_s=60.0, view_size=6, gossip_length=3, push_threshold=0.25,
            keepalive_period_s=60.0,
        ),
    )


def make_peer(config: FlowerConfig, name: str = "c1", host: int = 0) -> ContentPeer:
    return ContentPeer(
        peer_id=name, host_id=host, website="site-000.example.org", locality=0, config=config
    )


def obj(i: int) -> str:
    return f"http://site-000.example.org/object/{i}"


def summary_of(peer: ContentPeer, config: FlowerConfig) -> BloomFilter:
    """A peer's packed summary as the Bloom filter it encodes."""
    return BloomFilter.from_bits(peer.summary_bits(), config.summary_bits, SUMMARY_NUM_HASHES)


def col(contact: str, age: int = 0, payload: BloomFilter = None):
    """One view column ``(contact, age, packed summary)`` as peers exchange them."""
    return (contact, age, None if payload is None else payload._bits)


class TestContentStorage:
    def test_store_and_has_object(self, config):
        peer = make_peer(config)
        peer.store_object(obj(1))
        assert peer.has_object(obj(1))
        assert peer.num_objects == 1

    def test_store_is_idempotent(self, config):
        peer = make_peer(config)
        peer.store_object(obj(1))
        peer.store_object(obj(1))
        assert peer.num_objects == 1

    def test_summary_contains_stored_objects(self, config):
        peer = make_peer(config)
        for i in range(5):
            peer.store_object(obj(i))
        summary = summary_of(peer, config)
        assert all(obj(i) in summary for i in range(5))

    def test_summary_absorbs_a_stored_object(self, config):
        peer = make_peer(config)
        peer.store_object(obj(1))
        first = peer.summary_bits()
        assert first == peer.summary_bits()
        peer.store_object(obj(2))
        second = peer.summary_bits()
        assert second != first
        assert second == BloomFilter.from_items([obj(1), obj(2)], config.summary_bits)._bits

    def test_lru_capacity_evicts_and_reports_removal(self):
        config = FlowerConfig(
            num_websites=2, active_websites=1, objects_per_website=20, num_localities=2,
            locality_bits=2, content_cache_capacity=2,
        )
        peer = make_peer(config)
        peer.store_object(obj(1))
        peer.store_object(obj(2))
        peer.store_object(obj(3))
        assert peer.num_objects == 2
        assert not peer.has_object(obj(1))
        # the eviction forces a rebuild: a Bloom mask cannot express a removal
        assert peer.summary_bits() == (
            BloomFilter.from_items([obj(2), obj(3)], config.summary_bits)._bits
        )
        assert peer.take_delta() == ([obj(2), obj(3)], (obj(1),))


class TestView:
    def test_initialize_view_excludes_self(self, config):
        peer = make_peer(config, name="me")
        peer.initialize_view([col("me", 0), col("other", 0)])
        assert "me" not in peer.view
        assert "other" in peer.view

    def test_view_respects_capacity(self, config):
        peer = make_peer(config)
        peer.initialize_view([col(f"p{i}", age=i) for i in range(20)])
        assert len(peer.view) == config.gossip.view_size

    def test_increment_ages_ages_view_entries(self, config):
        peer = make_peer(config)
        peer.initialize_view([col("p1", 0)])
        peer.increment_ages()
        assert peer.view.get("p1").age == 1

    def test_forget_contact(self, config):
        peer = make_peer(config)
        peer.note_directory("d0")
        peer.initialize_view([col("p1", 0)])
        peer.forget_contact("p1")
        assert "p1" not in peer.view
        peer.forget_contact("d0")
        assert peer.directory_peer_id is None

    def test_forgetting_a_replaced_directory_keeps_the_current_one(self, config):
        peer = make_peer(config)
        peer.note_directory("d0")
        peer.note_directory("d1")
        peer.forget_contact("d0")
        assert peer.directory_peer_id == "d1"


class TestLocalResolution:
    def test_candidates_ordered_by_freshness(self, config):
        peer = make_peer(config)
        fresh = BloomFilter.from_items([obj(7)], num_bits=config.summary_bits)
        stale = BloomFilter.from_items([obj(7)], num_bits=config.summary_bits)
        peer.initialize_view(
            [col("stale", age=5, payload=stale), col("fresh", age=0, payload=fresh)]
        )
        assert peer.resolve_locally(obj(7)) == ["fresh", "stale"]

    def test_entries_without_summaries_are_skipped(self, config):
        peer = make_peer(config)
        peer.initialize_view([col("unknown", age=0, payload=None)])
        assert peer.resolve_locally(obj(1)) == []

    def test_non_matching_summaries_are_skipped(self, config):
        peer = make_peer(config)
        summary = BloomFilter.from_items([obj(1)], num_bits=config.summary_bits)
        peer.initialize_view([col("p", age=0, payload=summary)])
        assert peer.resolve_locally(obj(15)) == []


class TestGossip:
    def test_partner_is_oldest_view_entry(self, config):
        peer = make_peer(config)
        peer.initialize_view([col("young", age=0), col("old", age=7)])
        assert peer.select_gossip_partner() == "old"

    def test_partner_none_when_view_empty(self, config):
        assert make_peer(config).select_gossip_partner() is None

    def test_gossip_message_contains_summary_and_subset(self, config):
        peer = make_peer(config)
        peer.store_object(obj(1))
        peer.initialize_view([col(f"p{i}", age=i) for i in range(5)])
        message = peer.build_gossip_message(rng=random.Random(0))
        assert isinstance(message, GossipMessage)
        assert message.sender == peer.peer_id
        assert len(message.view_subset) == config.gossip.gossip_length
        assert message.summary_bits == peer.summary_bits()
        assert obj(1) in summary_of(peer, config)

    def test_exchange_adds_partner_with_fresh_summary(self, config):
        alice = make_peer(config, "alice", 0)
        bob = make_peer(config, "bob", 1)
        alice.store_object(obj(1))
        bob.store_object(obj(2))
        message = alice.build_gossip_message()
        reply = bob.handle_gossip(message)
        alice.apply_gossip(reply)
        assert "alice" in bob.view
        assert "bob" in alice.view
        assert alice.view.get("bob").age == 0
        assert obj(2) in alice.view.get("bob").payload
        assert bob.gossip_received == 1

    def test_exchange_disseminates_third_party_entries(self, config):
        alice = make_peer(config, "alice")
        bob = make_peer(config, "bob")
        carol_summary = BloomFilter.from_items([obj(9)], num_bits=config.summary_bits)
        alice.initialize_view([col("carol", age=1, payload=carol_summary)])
        reply = bob.handle_gossip(alice.build_gossip_message())
        alice.apply_gossip(reply)
        assert "carol" in bob.view
        assert bob.resolve_locally(obj(9)) == ["carol"]

    def test_view_never_contains_self_after_gossip(self, config):
        alice = make_peer(config, "alice")
        bob = make_peer(config, "bob")
        bob.initialize_view([col("alice", age=2)])
        reply = bob.handle_gossip(alice.build_gossip_message())
        alice.apply_gossip(reply)
        assert "alice" not in alice.view


class _PushGuard:
    """Just enough of :class:`OverlayMaintenance` to run its Algorithm 5 guard
    (``_maybe_push``) on one peer: every push it decides on is recorded."""

    def __init__(self, config: FlowerConfig) -> None:
        self._push_threshold = config.gossip.push_threshold
        self.deltas = []

    def _current_directory(self, website, locality, detector=None):
        return "d0"

    def _push(self, peer, directory):
        self.deltas.append(peer.take_delta())

    maybe_push = OverlayMaintenance._maybe_push


def pushes(peer: ContentPeer, config: FlowerConfig) -> bool:
    guard = _PushGuard(config)
    guard.maybe_push(peer)
    return bool(guard.deltas)


class TestPush:
    def test_push_respects_threshold(self, config):
        peer = make_peer(config)
        assert not pushes(peer, config)
        peer.store_object(obj(1))
        # one change over one object = 100% >= 25% threshold
        assert pushes(peer, config)

    def test_threshold_is_relative_to_content_size(self, config):
        peer = make_peer(config)
        for i in range(8):
            peer.store_object(obj(i))
        peer.take_delta()  # flush
        peer.store_object(obj(9))
        # 1 change / 9 objects ≈ 11% < 25%
        assert not pushes(peer, config)
        peer.store_object(obj(10))
        peer.store_object(obj(11))
        assert pushes(peer, config)

    def test_take_delta_carries_delta_and_resets(self, config):
        peer = make_peer(config)
        for rank in (3, 1, 2):
            peer.store_object(obj(rank))
        added, removed = peer.take_delta()
        assert list(added) == sorted([obj(1), obj(2), obj(3)])
        assert list(removed) == []
        assert not pushes(peer, config)
        assert peer.pushes_sent == 1


class TestLifecycle:
    def test_fail(self, config):
        peer = make_peer(config)
        peer.fail()
        assert not peer.alive
