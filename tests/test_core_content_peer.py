"""Unit tests for content peers: storage, views, gossip (Alg. 4) and push (Alg. 5)."""

import random

import pytest

from repro.core.config import FlowerConfig, GossipConfig
from repro.core.content_peer import ContentPeer, GossipMessage
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
        website_bits=10,
        gossip=GossipConfig(
            gossip_period_s=60.0, view_size=6, gossip_length=3, push_threshold=0.25,
            keepalive_period_s=60.0, dead_age=3,
        ),
    )


def make_peer(config: FlowerConfig, name: str = "c1", host: int = 0) -> ContentPeer:
    return ContentPeer(
        peer_id=name, host_id=host, website="site-000.example.org", locality=0, config=config
    )


def obj(i: int) -> str:
    return f"http://site-000.example.org/object/{i}"


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

    def test_drop_object(self, config):
        peer = make_peer(config)
        peer.store_object(obj(1))
        peer.drop_object(obj(1))
        assert not peer.has_object(obj(1))
        peer.drop_object(obj(2))  # dropping an absent object is a no-op

    def test_content_summary_contains_stored_objects(self, config):
        peer = make_peer(config)
        for i in range(5):
            peer.store_object(obj(i))
        summary = peer.content_summary()
        assert all(summary.might_contain(obj(i)) for i in range(5))

    def test_content_summary_cache_invalidated_on_change(self, config):
        peer = make_peer(config)
        peer.store_object(obj(1))
        first = peer.content_summary()
        assert first == peer.content_summary()
        peer.store_object(obj(2))
        second = peer.content_summary()
        assert second != first
        assert second.might_contain(obj(2))
        assert not first.might_contain(obj(2))  # handed-out summaries are snapshots
        peer.drop_object(obj(2))
        assert peer.content_summary() == first  # a drop forces the rebuild

    def test_lru_capacity_evicts_and_reports_removal(self):
        config = FlowerConfig(
            num_websites=2, active_websites=1, objects_per_website=20, num_localities=2,
            locality_bits=2, website_bits=10, content_cache_capacity=2,
        )
        peer = make_peer(config)
        peer.store_object(obj(1))
        peer.store_object(obj(2))
        peer.store_object(obj(3))
        assert peer.num_objects == 2
        assert not peer.has_object(obj(1))


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

    def test_increment_ages_also_ages_directory_entry(self, config):
        peer = make_peer(config)
        peer.note_directory("d0")
        peer.initialize_view([col("p1", 0)])
        peer.increment_ages()
        assert peer.view.get("p1").age == 1
        assert peer.directory_age == 1

    def test_note_directory_resets_age(self, config):
        peer = make_peer(config)
        peer.note_directory("d0")
        peer.increment_ages()
        peer.note_directory("d0")
        assert peer.directory_age == 0

    def test_forget_contact(self, config):
        peer = make_peer(config)
        peer.note_directory("d0")
        peer.initialize_view([col("p1", 0)])
        peer.forget_contact("p1")
        assert "p1" not in peer.view
        peer.forget_contact("d0")
        assert peer.directory_peer_id is None


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
        assert message.num_entries == config.gossip.gossip_length
        assert message.summary_bits == peer.content_summary()._bits
        assert peer.content_summary().might_contain(obj(1))

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
        assert alice.view.get("bob").payload.might_contain(obj(2))
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


class TestPush:
    def test_needs_push_respects_threshold(self, config):
        peer = make_peer(config)
        assert not peer.needs_push()
        peer.store_object(obj(1))
        # one change over one object = 100% >= 25% threshold
        assert peer.needs_push()

    def test_threshold_is_relative_to_content_size(self, config):
        peer = make_peer(config)
        for i in range(8):
            peer.store_object(obj(i))
        peer.take_delta()  # flush
        peer.store_object(obj(9))
        # 1 change / 9 objects ≈ 11% < 25%
        assert not peer.needs_push()
        peer.store_object(obj(10))
        peer.store_object(obj(11))
        assert peer.needs_push()

    def test_take_delta_carries_delta_and_resets(self, config):
        peer = make_peer(config)
        for rank in (3, 1, 2):
            peer.store_object(obj(rank))
        peer.drop_object(obj(2))
        added, removed = peer.take_delta()
        assert list(added) == sorted([obj(1), obj(3)])
        assert list(removed) == [obj(2)]
        assert not peer.needs_push()
        assert peer.pushes_sent == 1
        assert peer.directory_age == 0

    def test_pending_change_fraction_empty_peer(self, config):
        assert make_peer(config).pending_change_fraction() == 0.0


class TestLifecycle:
    def test_fail_and_recover(self, config):
        peer = make_peer(config)
        peer.fail()
        assert not peer.alive
        peer.recover()
        assert peer.alive
