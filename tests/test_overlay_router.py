"""Unit tests for the key-based routing service (Algorithms 1 and 2)."""

import pytest

from repro.overlay.chord import ChordRing
from repro.overlay.idspace import IdRange, IdSpace
from repro.overlay.router import KBRRouter, RouteResult, RoutingError, RoutingPolicy


@pytest.fixture
def idspace() -> IdSpace:
    return IdSpace(bits=8)


@pytest.fixture
def ring(idspace: IdSpace) -> ChordRing:
    node_ids = [8, 40, 72, 104, 136, 168, 200, 232]
    return ChordRing.build(idspace, node_ids)


@pytest.fixture
def router(ring: ChordRing) -> KBRRouter:
    return KBRRouter(ring)


class TestStandardRouting:
    def test_delivers_to_numerically_closest_node(self, router: KBRRouter, ring: ChordRing):
        result = router.route(8, 70)
        assert result.destination == 72
        assert result.delivered

    def test_route_to_own_key_has_no_hops(self, router: KBRRouter):
        result = router.route(40, 41)
        assert result.destination == 40
        assert result.hops == 0
        assert result.path == [40]

    def test_path_starts_at_start_node(self, router: KBRRouter):
        result = router.route(8, 200)
        assert result.source == 8
        assert result.path[-1] == result.destination

    def test_all_keys_route_to_owner(self, router: KBRRouter, ring: ChordRing):
        for key in range(0, 256, 7):
            result = router.route(8, key)
            assert result.destination == ring.owner_of(key).node_id

    def test_route_from_dead_node_raises(self, router: KBRRouter, ring: ChordRing):
        ring.fail(8)
        with pytest.raises(RoutingError):
            router.route(8, 100)

    def test_invalid_key_rejected(self, router: KBRRouter):
        with pytest.raises(ValueError):
            router.route(8, 1 << 20)

    def test_latency_accumulates_over_hops(self, ring: ChordRing):
        router = KBRRouter(ring, latency_callback=lambda a, b: 10.0)
        result = router.route(8, 200)
        assert result.latency_ms == pytest.approx(10.0 * result.hops)

    def test_counter_clockwise_routes_are_logarithmic(self):
        """Back fingers make CCW routes O(log n), not an O(n) predecessor walk."""
        import random

        idspace = IdSpace(bits=16)
        rng = random.Random(5)
        node_ids = sorted(rng.sample(range(idspace.size), 256))
        ring = ChordRing(idspace, auto_stabilize=False)
        for node_id in node_ids:
            ring.join(node_id)
        ring.stabilize()
        router = KBRRouter(ring)
        lengths = []
        for start in rng.sample(node_ids, 40):
            # A key just behind the start node: the worst case for forward-only
            # fingers (nearly a full clockwise lap, or an O(n) backward walk).
            key = (start - 1 - rng.randrange(idspace.size // 16)) % idspace.size
            result = router.route(start, key)
            assert result.destination == ring.owner_of(key).node_id
            lengths.append(result.hops)
        assert max(lengths) <= 16  # O(log 256) = 8 expected, generous bound
        assert sum(lengths) / len(lengths) <= 10

    def test_routing_around_failed_node(self, ring: ChordRing):
        router = KBRRouter(ring)
        ring.fail(72)  # no stabilisation: other nodes still point at 72
        result = router.route(8, 70)
        # The message must still be delivered, to a live node.
        assert result.destination in ring.live_ids()

    def test_lookup_hashes_raw_keys(self, router: KBRRouter, ring: ChordRing):
        result = router.lookup(8, "http://site-000.example.org/object/4")
        assert result.destination in ring.live_ids()


class TestConstrainedRouting:
    def test_constraint_required(self, router: KBRRouter):
        with pytest.raises(ValueError):
            router.route(8, 100, policy=RoutingPolicy.CONSTRAINED)

    def test_constrained_delivery_prefers_matching_nodes(self, ring: ChordRing):
        router = KBRRouter(ring)
        # Accept only nodes in the upper half of the ring.
        constraint = IdRange(128, 256)
        result = router.route(8, 100, policy=RoutingPolicy.CONSTRAINED, constraint=constraint)
        assert result.destination >= 128

    def test_constrained_falls_back_when_no_match_known(self, ring: ChordRing):
        router = KBRRouter(ring)
        # An unsatisfiable constraint must still deliver (Algorithm 2 keeps p').
        result = router.route(8, 100, policy=RoutingPolicy.CONSTRAINED, constraint=IdRange(0, 0))
        assert result.destination in ring.live_ids()

    def test_constrained_same_destination_when_target_matches(self, ring: ChordRing):
        router = KBRRouter(ring)
        unconstrained = router.route(8, 70)
        constrained = router.route(
            8, 70, policy=RoutingPolicy.CONSTRAINED, constraint=IdRange(0, 256)
        )
        assert constrained.destination == unconstrained.destination

    def test_standard_policy_ignores_the_constraint(self, ring: ChordRing):
        router = KBRRouter(ring)
        standard = router.route(8, 100)
        with_range = router.route(8, 100, constraint=IdRange(128, 256))
        assert with_range.destination == standard.destination < 128
        assert with_range.path == standard.path


class TestRouteResult:
    def test_hops_counts_transitions(self):
        result = RouteResult(key=1, destination=3, path=[1, 2, 3])
        assert result.hops == 2

    def test_empty_path_has_zero_hops(self):
        result = RouteResult(key=1, destination=1, path=[])
        assert result.hops == 0
