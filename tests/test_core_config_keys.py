"""Unit tests for FlowerConfig validation and the engineered D-ring keys."""

import pytest

from repro.core.config import (
    ADDRESS_BYTES,
    AGE_BYTES,
    HEADER_BYTES,
    HOUR,
    MINUTE,
    SUMMARY_BITS_PER_OBJECT,
    FlowerConfig,
    GossipConfig,
    gossip_message_bytes,
    push_message_bytes,
    summary_bytes,
    summary_refresh_bytes,
)
from repro.core.keys import KeyScheme


class TestGossipConfig:
    def test_defaults_match_table1_choice(self):
        gossip = GossipConfig()
        assert gossip.gossip_period_s == 30 * MINUTE
        assert gossip.view_size == 50
        assert gossip.gossip_length == 10
        assert gossip.push_threshold == 0.1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"gossip_period_s": 0},
            {"view_size": 0},
            {"gossip_length": 0},
            {"gossip_length": 100, "view_size": 50},
            {"push_threshold": 0},
            {"push_threshold": 1.5},
            {"keepalive_period_s": 0},
            {"view_size": 5},  # below the default gossip_length of 10
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            GossipConfig(**kwargs)


class TestMessageSizeModel:
    def test_gossip_message_size_scales_with_gossip_length(self):
        small = gossip_message_bytes(summary_bits=800, gossip_length=5)
        large = gossip_message_bytes(summary_bits=800, gossip_length=20)
        assert large > small
        assert large - small == 15 * (ADDRESS_BYTES + AGE_BYTES + 100)

    def test_push_size_scales_with_changes(self):
        assert push_message_bytes(10) - push_message_bytes(0) == 10 * 20

    def test_summary_bytes_rounds_up(self):
        assert summary_bytes(9) == 2
        assert summary_refresh_bytes(800) == HEADER_BYTES + 100

    def test_empty_messages_are_a_bare_header(self):
        assert push_message_bytes(0) == HEADER_BYTES
        assert summary_refresh_bytes(0) == HEADER_BYTES
        assert gossip_message_bytes(summary_bits=0, gossip_length=0) == HEADER_BYTES


class TestFlowerConfig:
    def test_table1_defaults(self):
        config = FlowerConfig()
        table = config.table1()
        assert table["Nb of localities (k)"] == 6
        assert table["Nb of websites (|W|)"] == 100
        assert table["Max content-overlay size (Sco)"] == 100
        assert table["View size (Vgossip)"] == 50
        assert table["Gossip length (Lgossip)"] == 10
        assert config.simulation_duration_s == 24 * HOUR

    def test_derived_quantities(self):
        config = FlowerConfig()
        assert config.summary_bits == 8 * config.objects_per_website
        assert config.num_directory_peers == 600

    @pytest.mark.parametrize("objects", [1, 9, 500])
    def test_summary_is_table1_bits_per_object(self, objects):
        assert SUMMARY_BITS_PER_OBJECT == 8
        config = FlowerConfig(objects_per_website=objects)
        assert config.summary_bits == SUMMARY_BITS_PER_OBJECT * objects

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_websites": 0},
            {"active_websites": 0},
            {"active_websites": 200},
            {"objects_per_website": 0},
            {"num_localities": 0},
            {"max_content_overlay_size": 0},
            {"num_localities": 20, "locality_bits": 3},
            {"content_miss_fallback": "random"},
            {"content_cache_capacity": 0},
            {"simulation_duration_s": 0},
            {"metrics_window_s": 0},
            {"dht_substrate": "kademlia"},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FlowerConfig(**kwargs)


class TestKeyScheme:
    @pytest.fixture
    def keys(self) -> KeyScheme:
        return KeyScheme(website_bits=13, locality_bits=3)

    def test_bit_budget(self, keys: KeyScheme):
        assert keys.idspace.bits == 16
        assert keys.max_localities == 8
        assert keys.max_websites == 8192

    def test_validation(self):
        with pytest.raises(ValueError):
            KeyScheme(website_bits=0, locality_bits=3)
        with pytest.raises(ValueError):
            KeyScheme(website_bits=3, locality_bits=0)

    def test_encode_decode_round_trip(self, keys: KeyScheme):
        for website_id in (0, 1, 4095, 8191):
            for locality in (0, 3, 7):
                identifier = keys.encode(website_id, locality)
                decoded = keys.decode(identifier)
                assert decoded.website_id == website_id
                assert decoded.locality_id == locality
                assert int(decoded) == identifier

    def test_encode_bounds(self, keys: KeyScheme):
        with pytest.raises(ValueError):
            keys.encode(keys.max_websites, 0)
        with pytest.raises(ValueError):
            keys.encode(0, keys.max_localities)

    def test_directory_ids_are_consecutive(self, keys: KeyScheme):
        """Section 3.1: directory peers of one website occupy successive IDs."""
        ids = [keys.key_for("http://a.example.org", locality) for locality in range(6)]
        assert [b - a for a, b in zip(ids, ids[1:])] == [1] * 5

    def test_directory_ids_bounds(self, keys: KeyScheme):
        with pytest.raises(ValueError):
            keys.key_for("http://a.org", -1)
        with pytest.raises(ValueError):
            keys.key_for("http://a.org", keys.max_localities)

    def test_key_for_matches_directory_id(self, keys: KeyScheme):
        """The search key of (ws, loc) equals the ID of d(ws, loc)."""
        website_id = keys.website_id("http://a.example.org")
        for locality in range(4):
            assert keys.key_for("http://a.example.org", locality) == keys.encode(
                website_id, locality
            )

    def test_website_constraint_separates_websites(self, keys: KeyScheme):
        a0 = keys.key_for("http://a.org", 0)
        a5 = keys.key_for("http://a.org", 5)
        b0 = keys.key_for("http://b.org", 0)
        low, high = keys.website_constraint(a0)
        assert low <= a5 < high and not low <= b0 < high

    def test_website_constraint_is_the_websites_locality_block(self, keys: KeyScheme):
        ids = [keys.key_for("http://a.org", locality) for locality in range(keys.max_localities)]
        for identifier in ids:
            low, high = keys.website_constraint(identifier)
            assert low == keys.website_id("http://a.org") << keys.locality_bits
            assert list(range(low, high)) == ids

    def test_decode_rejects_identifiers_outside_the_space(self, keys: KeyScheme):
        with pytest.raises(ValueError):
            keys.decode(1 << keys.idspace.bits)
        with pytest.raises(ValueError):
            keys.decode(-1)

    def test_website_id_is_deterministic(self, keys: KeyScheme):
        assert keys.website_id("http://x.org") == keys.website_id("http://x.org")
        assert 0 <= keys.website_id("http://x.org") < keys.max_websites

    def test_locality_of(self, keys: KeyScheme):
        identifier = keys.key_for("http://x.org", 5)
        assert keys.locality_of(identifier) == 5
        assert keys.decode(identifier).website_id == keys.website_id("http://x.org")
