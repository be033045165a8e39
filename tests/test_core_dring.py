"""Unit tests for the D-ring: placement, routing (Algorithm 2) and replacement."""

import random

import pytest

from repro.core.dring import DRing
from repro.core.keys import KeyScheme

WEBSITES = ["http://alpha.org", "http://beta.org", "http://gamma.org"]
NUM_LOCALITIES = 4


@pytest.fixture
def keys() -> KeyScheme:
    return KeyScheme(website_bits=13, locality_bits=3)


@pytest.fixture
def dring(keys: KeyScheme) -> DRing:
    ring = DRing(keys)
    for website in WEBSITES:
        for locality in range(NUM_LOCALITIES):
            ring.register_directory(website, locality, f"d({website},{locality})")
    return ring


class TestPlacement:
    def test_one_directory_per_pair(self, dring: DRing):
        assert dring.size == len(WEBSITES) * NUM_LOCALITIES
        for website in WEBSITES:
            for locality in range(NUM_LOCALITIES):
                placement = dring.placement_for(website, locality)
                assert placement is not None
                assert placement.peer_id == f"d({website},{locality})"

    def test_node_id_matches_key_scheme(self, dring: DRing, keys: KeyScheme):
        placement = dring.placement_for(WEBSITES[0], 2)
        assert placement.node_id == keys.key_for(WEBSITES[0], 2)

    def test_duplicate_registration_rejected(self, dring: DRing):
        with pytest.raises(ValueError):
            dring.register_directory(WEBSITES[0], 0, "other")

    def test_every_locality_of_a_website_is_placed(self, dring: DRing):
        placements = [p for p in dring.placements() if p.website == WEBSITES[1]]
        assert sorted(p.locality for p in placements) == list(range(NUM_LOCALITIES))

    def test_directory_peer_id_lookup(self, dring: DRing):
        assert dring.directory_peer_id(WEBSITES[0], 1) == f"d({WEBSITES[0]},1)"
        assert dring.directory_peer_id("http://unknown.org", 0) is None

    def test_placement_at_node_id(self, dring: DRing, keys: KeyScheme):
        node_id = keys.key_for(WEBSITES[2], 3)
        assert dring.placement_at(node_id).website == WEBSITES[2]


class TestRouting:
    def test_query_reaches_exact_directory(self, dring: DRing):
        """The engineered key delivers the query to d(ws, loc) exactly."""
        for website in WEBSITES:
            for locality in range(NUM_LOCALITIES):
                placement, result = dring.resolve_directory(website, locality)
                assert placement is not None
                assert placement.website == website
                assert placement.locality == locality
                assert result.delivered

    def test_routing_from_arbitrary_bootstrap_node(self, dring: DRing):
        rng = random.Random(3)
        for _ in range(10):
            start = dring.random_bootstrap_node(rng)
            placement, _ = dring.resolve_directory(WEBSITES[0], 2, start_node_id=start)
            assert placement.website == WEBSITES[0]
            assert placement.locality == 2

    def test_missing_directory_redirects_within_same_website(self, dring: DRing):
        """Algorithm 2: when d(ws, loc) is absent the query stays with ws's peers."""
        dring.remove_directory(WEBSITES[0], 2, failed=True)
        dring.ring.stabilize()
        placement, _ = dring.resolve_directory(WEBSITES[0], 2)
        assert placement is not None
        assert placement.website == WEBSITES[0]
        assert placement.locality != 2

    def test_route_query_returns_hops_and_key(self, dring: DRing, keys: KeyScheme):
        result = dring.route_query(WEBSITES[1], 1)
        assert result.key == keys.key_for(WEBSITES[1], 1)
        assert result.hops >= 0

    def test_empty_dring_cannot_route(self, keys: KeyScheme):
        empty = DRing(keys)
        with pytest.raises(RuntimeError):
            empty.route_query("http://alpha.org", 0)

    def test_random_bootstrap_on_empty_ring_is_none(self, keys: KeyScheme):
        assert DRing(keys).random_bootstrap_node(random.Random(1)) is None


class TestNeighbors:
    def test_neighbors_are_adjacent_localities_same_website(self, dring: DRing):
        neighbors = dring.neighbors_of(WEBSITES[0], 1)
        assert {p.locality for p in neighbors} == {0, 2}
        assert all(p.website == WEBSITES[0] for p in neighbors)

    def test_neighbors_wrap_around(self, dring: DRing):
        neighbors = dring.neighbors_of(WEBSITES[0], 0)
        assert {p.locality for p in neighbors} == {NUM_LOCALITIES - 1, 1}

    def test_single_locality_website_has_no_neighbors(self, keys: KeyScheme):
        ring = DRing(keys)
        ring.register_directory("http://solo.org", 0, "d0")
        assert ring.neighbors_of("http://solo.org", 0) == []

    def test_missing_neighbor_is_skipped(self, dring: DRing):
        dring.remove_directory(WEBSITES[0], 0)
        neighbors = dring.neighbors_of(WEBSITES[0], 1)
        assert {p.locality for p in neighbors} == {2}


class TestReplacement:
    def test_replace_keeps_the_same_identifier(self, dring: DRing, keys: KeyScheme):
        """Section 5.2: the replacing peer is assigned the same engineered ID."""
        old = dring.placement_for(WEBSITES[0], 3)
        dring.remove_directory(WEBSITES[0], 3, failed=True)
        replacement = dring.replace_directory(WEBSITES[0], 3, "new-directory")
        assert replacement.node_id == old.node_id == keys.key_for(WEBSITES[0], 3)
        assert dring.directory_peer_id(WEBSITES[0], 3) == "new-directory"

    def test_replace_over_live_directory_swaps_it(self, dring: DRing):
        dring.replace_directory(WEBSITES[1], 1, "usurper")
        assert dring.directory_peer_id(WEBSITES[1], 1) == "usurper"
        assert dring.size == len(WEBSITES) * NUM_LOCALITIES

    def test_after_replacement_queries_reach_new_peer(self, dring: DRing):
        dring.remove_directory(WEBSITES[2], 0, failed=True)
        dring.replace_directory(WEBSITES[2], 0, "fresh")
        placement, _ = dring.resolve_directory(WEBSITES[2], 0)
        assert placement.peer_id == "fresh"

    def test_remove_unknown_directory_is_noop(self, dring: DRing):
        dring.remove_directory("http://unknown.org", 0)
        assert dring.size == len(WEBSITES) * NUM_LOCALITIES
