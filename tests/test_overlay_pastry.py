"""Unit tests for the Pastry substrate and D-ring integration on top of it."""

import random

import pytest

from repro.core.dring import DRing
from repro.core.keys import KeyScheme
from repro.overlay.idspace import IdRange, IdSpace
from repro.overlay.pastry import PastryNode, PastryRing
from repro.overlay.router import KBRRouter, RoutingPolicy
from tests.reference.overlay import closest_to


@pytest.fixture
def idspace() -> IdSpace:
    return IdSpace(bits=16)


@pytest.fixture
def ring(idspace: IdSpace) -> PastryRing:
    rng = random.Random(5)
    node_ids = sorted(rng.sample(range(idspace.size), 64))
    return PastryRing.build(idspace, node_ids)


class TestPastryNode:
    def test_digit_extraction(self, idspace: IdSpace):
        node = PastryNode(0xABCD, idspace, digit_bits=4)
        assert node.num_digits == 4
        assert [node.digit(0xABCD, row) for row in range(4)] == [0xA, 0xB, 0xC, 0xD]

    def test_shared_prefix_length(self, idspace: IdSpace):
        node = PastryNode(0xAB00, idspace, digit_bits=4)
        assert node.shared_prefix_length(0xABFF) == 2
        assert node.shared_prefix_length(0xAB00) == 4
        assert node.shared_prefix_length(0x0000) == 0

    def test_validation(self, idspace: IdSpace):
        with pytest.raises(ValueError):
            PastryNode(1, idspace, digit_bits=0)
        with pytest.raises(ValueError):
            PastryNode(1, idspace, leaf_set_size=3)

    def test_forget_removes_from_all_state(self, idspace: IdSpace):
        node = PastryNode(0, idspace)
        node.leaf_set = [10, 20]
        node.routing_table = {0: {1: 10, 2: 30}}
        node.forget(10)
        assert 10 not in node.known_nodes()
        assert 30 in node.known_nodes()

    def test_lookup_in_range_filters(self, idspace: IdSpace):
        node = PastryNode(0, idspace)
        node.leaf_set = [10, 20]
        node.routing_table = {0: {2: 30}}
        assert node.lookup_in_range(22, 15, 40) == 20
        assert node.lookup_in_range(22, 25, 40) == 30
        assert node.lookup_in_range(22, 100, 200) is None


class TestPastryRing:
    def test_membership_and_ownership(self, ring: PastryRing, idspace: IdSpace):
        assert len(ring) == 64
        key = 1234
        owner = ring.owner_of(key)
        live = ring.live_ids()
        assert owner.node_id == closest_to(idspace, key, live)

    def test_leaf_sets_are_the_numeric_neighbours(self, ring: PastryRing):
        live = ring.live_ids()
        node = ring.node(live[10])
        expected_neighbours = set(live[6:10] + live[11:15])
        assert set(node.leaf_set) == expected_neighbours

    def test_routing_table_rows_index_shared_prefixes(self, ring: PastryRing):
        node = ring.node(ring.live_ids()[0])
        for row, slots in node.routing_table.items():
            for node_id in slots.values():
                assert node.shared_prefix_length(node_id) == row

    def test_duplicate_join_rejected(self, ring: PastryRing):
        with pytest.raises(ValueError):
            ring.join(ring.live_ids()[0])

    def test_leave_and_fail(self, ring: PastryRing):
        victim = ring.live_ids()[5]
        ring.leave(victim)
        assert victim not in ring
        failed = ring.live_ids()[5]
        ring.fail(failed)
        assert failed not in ring
        ring.stabilize()
        assert all(failed not in ring.node(nid).known_nodes() for nid in ring.live_ids())


class TestPastryRouting:
    def test_router_delivers_to_numerically_closest(self, ring: PastryRing, idspace: IdSpace):
        router = KBRRouter(ring)
        rng = random.Random(9)
        for _ in range(30):
            start = rng.choice(ring.live_ids())
            key = rng.randrange(idspace.size)
            result = router.route(start, key)
            assert result.destination == closest_to(idspace, key, ring.live_ids())

    def test_hop_counts_are_logarithmic(self, ring: PastryRing, idspace: IdSpace):
        router = KBRRouter(ring)
        rng = random.Random(11)
        hops = []
        for _ in range(30):
            start = rng.choice(ring.live_ids())
            key = rng.randrange(idspace.size)
            hops.append(router.route(start, key).hops)
        assert sum(hops) / len(hops) <= 6  # log16(64) ≈ 1.5 digits; generous bound

    def test_constrained_routing_works_on_pastry(self, ring: PastryRing, idspace: IdSpace):
        router = KBRRouter(ring)
        constraint = IdRange(32768, idspace.size)
        result = router.route(
            ring.live_ids()[0], 40000, policy=RoutingPolicy.CONSTRAINED, constraint=constraint
        )
        assert result.destination >= 32768


class TestDRingOverPastry:
    def test_dring_queries_reach_the_right_directory(self):
        keys = KeyScheme(website_bits=13, locality_bits=3)
        dring = DRing(keys, ring=PastryRing(keys.idspace))
        websites = ["http://alpha.org", "http://beta.org"]
        for website in websites:
            for locality in range(4):
                dring.register_directory(website, locality, f"d({website},{locality})")
        for website in websites:
            for locality in range(4):
                placement, result = dring.resolve_directory(website, locality)
                assert placement.website == website
                assert placement.locality == locality
                assert result.delivered

    def test_missing_directory_stays_within_the_website(self):
        keys = KeyScheme(website_bits=13, locality_bits=3)
        dring = DRing(keys, ring=PastryRing(keys.idspace))
        for locality in range(4):
            dring.register_directory("http://alpha.org", locality, f"d(alpha,{locality})")
            dring.register_directory("http://beta.org", locality, f"d(beta,{locality})")
        dring.remove_directory("http://alpha.org", 2, failed=True)
        dring.ring.stabilize()
        placement, _ = dring.resolve_directory("http://alpha.org", 2)
        assert placement is not None
        assert placement.website == "http://alpha.org"
