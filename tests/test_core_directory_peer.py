"""Unit tests for directory peers: index, summaries and Algorithm 3."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import DEAD_AGE, FlowerConfig, GossipConfig
from repro.core.directory_peer import DirectoryPeer
from tests.reference.directory import lookup_index, lookup_summaries


@pytest.fixture
def config() -> FlowerConfig:
    return FlowerConfig(
        num_websites=2,
        active_websites=1,
        objects_per_website=20,
        num_localities=2,
        max_content_overlay_size=4,
        locality_bits=2,
        gossip=GossipConfig(
            gossip_period_s=60.0, view_size=6, gossip_length=3, push_threshold=0.25,
            keepalive_period_s=60.0,
        ),
    )


@pytest.fixture
def directory(config: FlowerConfig) -> DirectoryPeer:
    return DirectoryPeer(
        peer_id="d0", host_id=0, website="site-000.example.org", locality=0,
        node_id=1, config=config,
    )


def obj(i: int) -> str:
    return f"http://site-000.example.org/object/{i}"


class TestDirectoryIndex:
    def test_register_client_with_object(self, directory: DirectoryPeer):
        assert directory.register_client("c1", obj(1))
        assert directory.index_size == 1
        assert lookup_index(directory, obj(1)) == ["c1"]

    def test_register_existing_client_adds_object_and_refreshes(self, directory):
        directory.register_client("c1", obj(1))
        directory.increment_ages()
        assert directory.register_client("c1", obj(2))
        entry = directory.entry("c1")
        assert entry.age == 0
        assert entry.objects == {obj(1), obj(2)}
        assert directory.index_size == 1

    def test_overlay_capacity_is_enforced(self, directory, config):
        for i in range(config.max_content_overlay_size):
            assert directory.register_client(f"c{i}", obj(i))
        assert directory.is_full
        assert not directory.register_client("late", obj(9))

    def test_remove_client(self, directory):
        directory.register_client("c1", obj(1))
        assert directory.remove_client("c1")
        assert not directory.remove_client("c1")
        assert lookup_index(directory, obj(1)) == []

    def test_indexed_objects_union(self, directory):
        directory.register_client("c1", obj(1))
        directory.register_client("c2", obj(2))
        assert directory.indexed_objects() == {obj(1), obj(2)}


class TestPushAndAgeing:
    def test_push_updates_entry(self, directory):
        directory.register_client("c1", obj(1))
        directory.apply_delta("c1", (obj(2), obj(3)), (obj(1),))
        entry = directory.entry("c1")
        assert entry.objects == {obj(2), obj(3)}
        assert directory.pushes_received == 1

    def test_push_from_unknown_peer_creates_entry(self, directory):
        directory.apply_delta("newcomer", (obj(5),), ())
        assert lookup_index(directory, obj(5)) == ["newcomer"]

    def test_push_from_unknown_peer_ignored_when_full(self, directory, config):
        for i in range(config.max_content_overlay_size):
            directory.register_client(f"c{i}", obj(i))
        directory.apply_delta("late", (obj(9),), ())
        assert "late" not in directory.members()

    def test_keepalive_resets_age(self, directory):
        directory.register_client("c1", obj(1))
        directory.increment_ages()
        directory.increment_ages()
        directory.handle_keepalive("c1")
        assert directory.entry("c1").age == 0

    def test_keepalive_from_unknown_peer_is_ignored(self, directory):
        directory.handle_keepalive("ghost")
        assert directory.index_size == 0

    def test_dead_entries_evicted_after_tdead(self, directory, config):
        """Section 5.1: entries older than Tdead are removed from the index."""
        directory.register_client("quiet", obj(1))
        directory.register_client("chatty", obj(2))
        for _ in range(DEAD_AGE + 1):
            directory.increment_ages()
            directory.handle_keepalive("chatty")
        dead = directory.evict_dead_entries()
        assert dead == ["quiet"]
        assert directory.members() == ("chatty",)


class TestSummaries:
    def test_build_summary_covers_indexed_objects(self, directory):
        directory.register_client("c1", obj(1))
        directory.register_client("c2", obj(2))
        summary = directory.build_summary()
        assert obj(1) in summary and obj(2) in summary

    def test_refresh_triggered_by_new_object_fraction(self, directory):
        directory.register_client("c1", obj(1))
        assert directory.should_refresh_summary()
        directory.publish_summary()
        assert not directory.should_refresh_summary()
        # A small addition relative to the published set must not trigger a refresh
        # until the threshold fraction of new objects is reached.
        for i in range(2, 8):
            directory.register_client(f"c{i % 4}", obj(i))
        assert directory.should_refresh_summary()

    def test_publish_summary_counts(self, directory):
        directory.register_client("c1", obj(1))
        directory.publish_summary()
        assert directory.summaries_sent == 1

    def test_store_and_drop_neighbor_summaries(self, directory):
        summary = directory.build_summary()
        summary.add(obj(9))
        directory.store_neighbor_summary("d-neighbor", summary)
        assert lookup_summaries(directory, obj(9)) == ["d-neighbor"]
        directory.drop_neighbor("d-neighbor")
        assert lookup_summaries(directory, obj(9)) == []


class TestQueryProcessing:
    def test_redirects_to_content_peer_holding_object(self, directory):
        directory.register_client("c1", obj(1))
        assert directory.redirect(obj(1)) == ("content_peer", "c1")
        assert directory.queries_processed == 1

    def test_prefers_recently_heard_holders(self, directory):
        directory.register_client("stale", obj(1))
        directory.increment_ages()
        directory.register_client("fresh", obj(1))
        assert directory.redirect(obj(1)) == ("content_peer", "fresh")

    def test_excluded_holders_are_skipped(self, directory):
        directory.register_client("c1", obj(1))
        directory.register_client("c2", obj(1))
        assert directory.redirect(obj(1), {"c1"}) == ("content_peer", "c2")

    def test_falls_back_to_neighbor_directory_summary(self, directory, config):
        neighbor_summary = directory.build_summary()
        neighbor_summary.add(obj(9))
        directory.store_neighbor_summary("d-neighbor", neighbor_summary)
        assert directory.redirect(obj(9)) == ("directory_peer", "d-neighbor")

    def test_falls_back_to_server_when_nothing_matches(self, directory):
        assert directory.redirect(obj(17)) == ("server", None)

    def test_algorithm3_order_index_before_summaries(self, directory):
        """Algorithm 3 checks the local index before the neighbour summaries."""
        directory.register_client("local-holder", obj(3))
        neighbor_summary = directory.build_summary()
        directory.store_neighbor_summary("d-neighbor", neighbor_summary)
        assert directory.redirect(obj(3)) == ("content_peer", "local-holder")


peer_names = st.sampled_from([f"c{i}" for i in range(6)])


class TestPushAsCall:
    """``apply_delta`` is Algorithm 5's push as the simulation runs it."""

    def test_publish_summary_counts_the_indexed_objects(self, directory):
        directory.apply_delta("c1", (obj(1), obj(2)), ())
        directory.apply_delta("c2", (obj(2), obj(3)), ())
        summary = directory.publish_summary()
        assert directory._published_object_count == len(directory.indexed_objects()) == 3
        assert summary == directory.build_summary()
        assert all(obj(i) in summary for i in (1, 2, 3))
        assert not directory.should_refresh_summary()


class TestRedirectCore:
    """``redirect`` is Algorithm 3 as the simulation runs it; ``lookup_index``
    / ``lookup_summaries`` (``tests/reference/directory.py``) are its reference."""

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.tuples(peer_names, st.integers(0, 4), st.booleans()), max_size=20),
        st.lists(st.tuples(st.sampled_from(["n1", "n2", "n3"]), st.integers(0, 4)), max_size=6),
        st.sets(st.sampled_from([f"c{i}" for i in range(6)] + ["n1", "n2", "n3", "d0"])),
    )
    def test_core_and_reference_agree(self, registrations, neighbours, exclude):
        config = FlowerConfig(max_content_overlay_size=6)
        directory = DirectoryPeer(
            peer_id="d0", host_id=0, website="w", locality=0, node_id=1, config=config
        )
        for who, rank, age_after in registrations:
            directory.register_client(who, obj(rank))
            if age_after:
                directory.increment_ages()
        stored = {}
        for name, rank in neighbours:
            summary = stored.get(name) or (
                DirectoryPeer(
                    peer_id=name, host_id=1, website="w", locality=1, node_id=2, config=config
                ).build_summary()
            )
            summary.add(obj(rank))
            stored[name] = summary
            directory.store_neighbor_summary(name, summary)
        for rank in range(6):
            kind, target = directory.redirect(obj(rank), exclude)
            holders = [p for p in lookup_index(directory, obj(rank)) if p not in exclude]
            matching = [n for n in lookup_summaries(directory, obj(rank)) if n not in exclude]
            if holders:
                assert (kind, target) == ("content_peer", holders[0])
            elif matching:
                assert (kind, target) == ("directory_peer", matching[0])
            else:
                assert (kind, target) == ("server", None)
        assert directory.queries_processed == 6
        assert directory._request_counts == {obj(rank): 1 for rank in range(6)}


class TestStateTransfer:
    def test_export_import_round_trip(self, directory, config):
        directory.register_client("c1", obj(1))
        directory.register_client("c2", obj(2))
        state = directory.export_state()
        successor = DirectoryPeer(
            peer_id="d0-new", host_id=5, website=directory.website, locality=0,
            node_id=directory.node_id, config=config,
        )
        successor.import_state(state)
        assert successor.index_size == 2
        assert lookup_index(successor, obj(1)) == ["c1"]

    def test_fail_marks_peer_dead(self, directory):
        directory.fail()
        assert not directory.alive
