"""Unit tests for Chord nodes, the ring and routing-state stabilisation."""

import pytest

from repro.overlay.chord import ChordRing
from repro.overlay.idspace import IdSpace
from repro.overlay.node import ChordNode, rebuild_routing_state
from tests.reference.overlay import successor_of


@pytest.fixture
def idspace() -> IdSpace:
    return IdSpace(bits=8)


@pytest.fixture
def ring(idspace: IdSpace) -> ChordRing:
    return ChordRing.build(idspace, [10, 50, 90, 130, 170, 210, 250])


class TestChordNode:
    def test_finger_starts(self, idspace: IdSpace):
        node = ChordNode(10, idspace)
        assert node.finger_start(0) == 11
        assert node.finger_start(3) == 18
        assert node.finger_start(7) == (10 + 128) % 256

    def test_known_nodes_includes_routing_state(self, idspace: IdSpace):
        node = ChordNode(10, idspace)
        node.fingers[0] = 20
        node.successors = [20, 30]
        node.predecessor = 250
        assert node.known_nodes() == {10, 20, 30, 250}

    def test_forget_removes_everywhere(self, idspace: IdSpace):
        node = ChordNode(10, idspace)
        node.fingers[0] = 20
        node.successors = [20, 30]
        node.predecessor = 20
        node.forget(20)
        assert 20 not in node.known_nodes()

    def test_local_lookup_returns_numerically_closest_known(self, idspace: IdSpace):
        node = ChordNode(10, idspace)
        node.successors = [50, 90]
        assert node.local_lookup(52) == 50
        assert node.local_lookup(11) == 10

    def test_lookup_in_range_filters(self, idspace: IdSpace):
        node = ChordNode(10, idspace)
        node.successors = [50, 90]
        assert node.lookup_in_range(52, 60, idspace.size) == 90
        assert node.lookup_in_range(52, 0, 0) is None

    def test_back_finger_starts(self, idspace: IdSpace):
        node = ChordNode(10, idspace)
        assert node.back_finger_start(0) == 9
        assert node.back_finger_start(3) == 2
        assert node.back_finger_start(7) == (10 - 128) % 256

    def test_forget_clears_back_fingers(self, idspace: IdSpace):
        node = ChordNode(0, idspace)
        node.back_fingers[0] = 200
        node.forget(200)
        assert 200 not in node.back_fingers

    def test_rebuild_routing_state_on_empty_set_is_noop(self):
        rebuild_routing_state({})

    def test_rebuild_points_back_fingers_at_ccw_predecessors(self, ring: ChordRing):
        live = sorted(ring.live_ids())

        def predecessor_of(identifier: int) -> int:
            candidates = [n for n in live if n <= identifier]
            return candidates[-1] if candidates else live[-1]

        for node_id in live:
            node = ring.node(node_id)
            for index in range(node.idspace.bits):
                assert node.back_fingers[index] == predecessor_of(
                    node.back_finger_start(index)
                )


class TestChordRing:
    def test_build_creates_consistent_ring(self, ring: ChordRing):
        assert len(ring) == 7
        for node_id in ring.live_ids():
            node = ring.node(node_id)
            assert node.predecessor in ring.live_ids()
            assert all(s in ring.live_ids() for s in node.successors)
            assert all(f in ring.live_ids() for f in node.fingers)

    def test_successors_follow_ring_order(self, ring: ChordRing):
        node = ring.node(10)
        assert node.successors[0] == 50
        node = ring.node(250)
        assert node.successors[0] == 10  # wraps around

    def test_owner_of_is_numerically_closest(self, ring: ChordRing):
        assert ring.owner_of(60).node_id == 50
        assert ring.owner_of(75).node_id == 90  # 75 is closer to 90 than to 50
        assert ring.owner_of(255).node_id == 250

    def test_owner_of_empty_ring_is_none(self, idspace: IdSpace):
        assert ChordRing(idspace).owner_of(5) is None

    def test_duplicate_join_rejected(self, ring: ChordRing):
        with pytest.raises(ValueError):
            ring.join(50)

    def test_join_updates_ownership(self, ring: ChordRing):
        ring.join(60)
        assert ring.owner_of(61).node_id == 60

    def test_leave_removes_node_and_repairs(self, ring: ChordRing):
        ring.leave(50)
        assert 50 not in ring
        assert ring.owner_of(52).node_id in (10, 90)
        node = ring.node(10)
        assert 50 not in node.known_nodes()

    def test_fail_keeps_stale_entries_until_stabilize(self, ring: ChordRing):
        ring.fail(50)
        assert 50 not in ring
        # The neighbours may still point at the failed node until stabilisation.
        ring.stabilize()
        assert all(50 not in ring.node(nid).known_nodes() for nid in ring.live_ids())

    def test_missing_node_lookup_raises(self, ring: ChordRing):
        with pytest.raises(KeyError):
            ring.node(77)

    def test_successor_of(self, ring: ChordRing):
        assert successor_of(ring, 51) == 90
        assert successor_of(ring, 50) == 50
        assert successor_of(ring, 251) == 10  # wrap
        assert successor_of(ChordRing(IdSpace(8)), 4) is None


class TestIdealRoute:
    def test_route_reaches_successor_of_key(self, ring: ChordRing):
        path = ring.ideal_route(10, 128)
        assert path[0] == 10
        assert path[-1] == successor_of(ring, 128)

    def test_route_from_destination_is_trivial(self, ring: ChordRing):
        assert ring.ideal_route(90, 88) == [90]

    def test_route_hops_are_logarithmic(self, idspace_large=IdSpace(bits=16)):
        import random

        rng = random.Random(4)
        node_ids = sorted(rng.sample(range(idspace_large.size), 256))
        ring = ChordRing(idspace_large, auto_stabilize=False)
        for node_id in node_ids:
            ring.join(node_id)
        lengths = []
        for _ in range(50):
            start = rng.choice(node_ids)
            key = rng.randrange(idspace_large.size)
            path = ring.ideal_route(start, key)
            assert path[-1] == successor_of(ring, key)
            lengths.append(len(path) - 1)
        assert max(lengths) <= 16  # O(log 256) = 8 expected, generous bound
        assert sum(lengths) / len(lengths) <= 10

    def test_route_path_nodes_are_members(self, ring: ChordRing):
        path = ring.ideal_route(10, 200)
        assert all(node in ring for node in path)

    def test_route_from_non_member_raises(self, ring: ChordRing):
        with pytest.raises(KeyError):
            ring.ideal_route(77, 10)
