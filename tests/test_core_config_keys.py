"""Unit tests for FlowerConfig validation and the engineered D-ring keys."""

import pytest

from repro.core.config import HOUR, MINUTE, FlowerConfig, GossipConfig, MessageSizeModel
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
            {"dead_age": 0},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            GossipConfig(**kwargs)


class TestMessageSizeModel:
    def test_gossip_message_size_scales_with_gossip_length(self):
        sizes = MessageSizeModel()
        small = sizes.gossip_message_bytes(summary_bits=800, gossip_length=5)
        large = sizes.gossip_message_bytes(summary_bits=800, gossip_length=20)
        assert large > small
        assert large - small == 15 * sizes.view_entry_bytes(800)

    def test_push_size_scales_with_changes(self):
        sizes = MessageSizeModel()
        assert sizes.push_message_bytes(10) - sizes.push_message_bytes(0) == 10 * 20

    def test_summary_bytes_rounds_up(self):
        sizes = MessageSizeModel()
        assert sizes.summary_bytes(9) == 2
        assert sizes.keepalive_bytes() == sizes.header_bytes
        assert sizes.summary_refresh_bytes(800) == sizes.header_bytes + 100


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
        assert config.id_bits == config.locality_bits + config.website_bits
        assert config.summary_bits == 8 * config.objects_per_website
        assert config.num_directory_peers == 600

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
            {"website_bits": 0},
            {"summary_bits_per_object": 0},
            {"content_miss_fallback": "random"},
            {"max_redirection_attempts": 0},
            {"content_cache_capacity": 0},
            {"simulation_duration_s": 0},
            {"metrics_window_s": 0},
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
        ids = keys.directory_ids_for("http://a.example.org", num_localities=6)
        assert len(ids) == 6
        assert [b - a for a, b in zip(ids, ids[1:])] == [1] * 5

    def test_directory_ids_bounds(self, keys: KeyScheme):
        with pytest.raises(ValueError):
            keys.directory_ids_for("http://a.org", num_localities=0)
        with pytest.raises(ValueError):
            keys.directory_ids_for("http://a.org", num_localities=9)

    def test_key_for_matches_directory_id(self, keys: KeyScheme):
        """The search key of (ws, loc) equals the ID of d(ws, loc)."""
        ids = keys.directory_ids_for("http://a.example.org", num_localities=4)
        for locality, expected in enumerate(ids):
            assert keys.key_for("http://a.example.org", locality) == expected

    def test_same_website_predicate(self, keys: KeyScheme):
        a0 = keys.key_for("http://a.org", 0)
        a5 = keys.key_for("http://a.org", 5)
        b0 = keys.key_for("http://b.org", 0)
        assert keys.same_website(a0, a5)
        assert not keys.same_website(a0, b0)
        constraint = keys.website_constraint(a0)
        assert constraint(a5) and not constraint(b0)

    def test_website_id_is_deterministic(self, keys: KeyScheme):
        assert keys.website_id("http://x.org") == keys.website_id("http://x.org")
        assert 0 <= keys.website_id("http://x.org") < keys.max_websites

    def test_locality_of_and_website_id_of(self, keys: KeyScheme):
        identifier = keys.key_for("http://x.org", 5)
        assert keys.locality_of(identifier) == 5
        assert keys.website_id_of(identifier) == keys.website_id("http://x.org")


class TestScalingUpKeys:
    """Section 5.3: extra low-order bits allow several directory peers per pair."""

    @pytest.fixture
    def keys(self) -> KeyScheme:
        return KeyScheme(website_bits=10, locality_bits=3, replica_bits=2)

    def test_replica_bits_extend_the_identifier_space(self, keys: KeyScheme):
        assert keys.idspace.bits == 15
        assert keys.max_replicas == 4
        basic = KeyScheme(website_bits=10, locality_bits=3)
        assert basic.max_replicas == 1

    def test_negative_replica_bits_rejected(self):
        with pytest.raises(ValueError):
            KeyScheme(website_bits=10, locality_bits=3, replica_bits=-1)

    def test_encode_decode_round_trip_with_replicas(self, keys: KeyScheme):
        for replica in range(keys.max_replicas):
            identifier = keys.encode(37, 5, replica)
            decoded = keys.decode(identifier)
            assert decoded.website_id == 37
            assert decoded.locality_id == 5
            assert decoded.replica_id == replica

    def test_replica_out_of_range_rejected(self, keys: KeyScheme):
        with pytest.raises(ValueError):
            keys.encode(1, 1, keys.max_replicas)

    def test_replicas_preserve_website_and_locality_identification(self, keys: KeyScheme):
        """The paper requires the extra bits at the end to preserve both IDs."""
        ids = keys.replica_ids_for("http://x.org", 5)
        assert len(ids) == keys.max_replicas
        for identifier in ids:
            assert keys.website_id_of(identifier) == keys.website_id("http://x.org")
            assert keys.locality_of(identifier) == 5
        # Replica identifiers of one pair are consecutive on the ring.
        assert [b - a for a, b in zip(ids, ids[1:])] == [1] * (len(ids) - 1)

    def test_replica_zero_matches_basic_scheme_layout(self):
        basic = KeyScheme(website_bits=10, locality_bits=3)
        extended = KeyScheme(website_bits=10, locality_bits=3, replica_bits=2)
        assert extended.encode(9, 2, 0) == basic.encode(9, 2) << 2
