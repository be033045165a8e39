"""Tests for the pairwise latency memo of the topology."""

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.network.topology as topology_module
from repro.core.sharding import plan_blocks
from repro.network.latency import LatencyModel
from repro.network.topology import MAX_LATENCY_MS, MIN_LATENCY_MS, Topology, TopologyConfig
from repro.scenarios.library import get_scenario
from repro.session import Session
from repro.sim.rng import RandomStreams
from repro.sim.sharded import run_blocks


@pytest.fixture
def topology() -> Topology:
    return Topology(TopologyConfig(num_hosts=300, num_localities=3), RandomStreams(11))


@lru_cache(maxsize=None)
def shared_topology(num_hosts: int) -> Topology:
    return Topology(TopologyConfig(num_hosts=num_hosts, num_localities=6), RandomStreams(3))


class TestLatencyCache:
    def test_cached_value_identical_to_fresh_computation(self, topology):
        first = topology.latency_ms(3, 77)
        info = topology.latency_cache_info()
        assert info["misses"] >= 1
        again = topology.latency_ms(3, 77)
        assert again == first
        assert topology.latency_cache_info()["hits"] >= 1

    def test_cache_is_symmetric(self, topology):
        forward = topology.latency_ms(5, 200)
        backward = topology.latency_ms(200, 5)
        assert forward == backward
        info = topology.latency_cache_info()
        # The reversed query must hit the same entry, not create a second one.
        assert info["hits"] >= 1
        assert info["size"] == info["misses"]

    def test_deterministic_across_instances(self):
        config = TopologyConfig(num_hosts=120, num_localities=3)
        a = Topology(config, RandomStreams(9))
        b = Topology(config, RandomStreams(9))
        for pair in [(0, 10), (3, 99), (57, 110)]:
            assert a.latency_ms(*pair) == b.latency_ms(*pair)

    def test_self_latency_not_cached(self, topology):
        assert topology.latency_ms(7, 7) == 0.0
        assert topology.latency_cache_info()["size"] == 0

    def test_values_within_bounds_via_cache(self, topology):
        for a in range(0, 300, 17):
            for b in range(1, 300, 23):
                if a == b:
                    continue
                latency = topology.latency_ms(a, b)
                assert MIN_LATENCY_MS <= latency <= MAX_LATENCY_MS
        # Warm queries replay the same values.
        assert topology.latency_ms(0, 1) == topology.latency_ms(1, 0)

    def test_capacity_bound_evicts_and_recomputes(self, monkeypatch):
        monkeypatch.setattr(topology_module, "LATENCY_MEMO_BOUND", 4)
        topology = Topology(TopologyConfig(num_hosts=100, num_localities=2), RandomStreams(5))
        values = {}
        for b in range(1, 12):
            values[b] = topology.latency_ms(0, b)
        info = topology.latency_cache_info()
        assert info["size"] <= 4
        # Evicted pairs recompute to identical values.
        for b, expected in values.items():
            assert topology.latency_ms(0, b) == expected

    def test_info_reports_counters_and_size(self, topology):
        assert topology.latency_cache_info() == {"hits": 0, "misses": 0, "size": 0}


class TestCacheBackends:
    """The memo's bound decides how much it holds, never what it returns."""

    def test_backends_return_identical_values(self, monkeypatch):
        config = TopologyConfig(num_hosts=150, num_localities=3)
        pairs = [(a, b) for a in range(0, 150, 7) for b in range(1, 150, 13) if a != b]
        unbounded = Topology(config, RandomStreams(13))
        expected = [unbounded.latency_ms(a, b) for a, b in pairs]
        assert unbounded.latency_cache_info()["size"] == len({frozenset(p) for p in pairs})
        monkeypatch.setattr(topology_module, "LATENCY_MEMO_BOUND", 50)
        bounded = Topology(config, RandomStreams(13))
        assert [bounded.latency_ms(a, b) for a, b in pairs] == expected
        assert bounded.latency_cache_info()["size"] <= 50

    def test_lru_size_never_exceeds_the_bound(self, monkeypatch):
        """Regression: the memo must stay bounded however many pairs are hit."""
        bound = 16
        monkeypatch.setattr(topology_module, "LATENCY_MEMO_BOUND", bound)
        topology = Topology(TopologyConfig(num_hosts=200, num_localities=2), RandomStreams(5))
        for a in range(0, 200, 3):
            for b in range(1, 200, 7):
                if a != b:
                    topology.latency_ms(a, b)
                    assert topology.latency_cache_info()["size"] <= bound
        assert topology.latency_cache_info()["misses"] > bound


def intra_locality_mean(topology: Topology, locality: int, sample: int = 200) -> float:
    """Mean latency over consecutive host pairs of one locality."""
    hosts = topology.hosts_in_locality(locality)[: sample + 1]
    pairs = list(zip(hosts, hosts[1:]))
    return sum(topology.latency_ms(a, b) for a, b in pairs) / len(pairs)


class TestIntraLocalityEstimate:
    def test_estimate_independent_of_call_order(self):
        config = TopologyConfig(num_hosts=300, num_localities=3)
        a = Topology(config, RandomStreams(21))
        b = Topology(config, RandomStreams(21))
        # Interleave differently: a memoised value must not depend on which
        # other pairs were asked before it.
        intra_locality_mean(a, 1)
        intra_locality_mean(a, 2)
        first_after_noise = intra_locality_mean(a, 0)
        first_direct = intra_locality_mean(b, 0)
        assert first_after_noise == first_direct

    def test_estimate_repeatable_on_same_instance(self):
        topology = Topology(TopologyConfig(num_hosts=300, num_localities=3), RandomStreams(21))
        cold = intra_locality_mean(topology, 0)
        misses = topology.latency_cache_info()["misses"]
        # The second pass is all memo hits and replays the same mean exactly.
        assert intra_locality_mean(topology, 0) == cold
        assert topology.latency_cache_info()["misses"] == misses


@pytest.mark.parametrize("num_hosts", [150, 5000])
@settings(max_examples=60, deadline=None)
@given(pairs=st.lists(st.tuples(st.integers(0, 4999), st.integers(0, 4999)), max_size=40))
def test_memo_is_the_pure_symmetric_function(num_hosts, pairs):
    topology = shared_topology(num_hosts)
    topology.drop_latency_memo()
    before = topology.latency_cache_info()
    asked = set()
    for a, b in pairs:
        a, b = a % num_hosts, b % num_hosts
        value = topology.latency_ms(a, b)
        assert topology.latency_ms(b, a) == value
        if a == b:
            assert value == 0.0
            continue
        assert value == topology._compute_latency(min(a, b), max(a, b))
        asked.add((min(a, b), max(a, b)))
    info = topology.latency_cache_info()
    assert info["size"] == len(asked)
    assert info["misses"] - before["misses"] == len(asked)


class TestMemoBound:
    def test_full_memo_clears_and_recomputes_identical_values(self, monkeypatch):
        monkeypatch.setattr(topology_module, "LATENCY_MEMO_BOUND", 4)
        topology = Topology(TopologyConfig(num_hosts=100, num_localities=2), RandomStreams(5))
        values, sizes = {}, []
        for b in range(1, 12):
            values[b] = topology.latency_ms(0, b)
            sizes.append(topology.latency_cache_info()["size"])
        # The fifth and ninth misses find the memo full and clear it first.
        assert sizes == [1, 2, 3, 4, 1, 2, 3, 4, 1, 2, 3]
        for b, expected in values.items():
            assert topology.latency_ms(0, b) == expected == topology._compute_latency(0, b)
            assert topology.latency_cache_info()["size"] <= 4

    def test_drop_empties_the_memo_and_keeps_the_counters(self, topology):
        for b in range(1, 20):
            topology.latency_ms(0, b)
        topology.latency_ms(0, 1)
        before = topology.latency_cache_info()
        assert before["size"] == 19
        topology.drop_latency_memo()
        assert topology.latency_cache_info() == {**before, "size": 0}
        topology.latency_ms(0, 1)  # dropped: recomputes
        assert topology.latency_cache_info()["misses"] == before["misses"] + 1

    def test_every_cut_block_leaves_the_memo_empty(self, monkeypatch):
        spec = get_scenario("paper-default").scaled(0.25)
        plan = plan_blocks(spec)
        assert len(plan) == 2
        sizes = []
        drop = Topology.drop_latency_memo

        def recording_drop(self):
            before = self.latency_cache_info()["size"]
            drop(self)
            sizes.append((before, self.latency_cache_info()["size"]))

        monkeypatch.setattr(Topology, "drop_latency_memo", recording_drop)
        session = Session(spec, seed=42)
        run_blocks(session.experiment, plan, (session.attach_models,))
        assert len(sizes) == 2
        assert all(before > 0 and after == 0 for before, after in sizes)


class TestLatencyModelCache:
    def test_peer_queries_share_topology_cache(self, topology):
        model = LatencyModel(topology)
        model.register_peer("a", 10)
        model.register_peer("b", 20)
        first = model.latency_ms("a", "b")
        assert model.latency_ms("b", "a") == first
        info = model.topology.latency_cache_info()
        assert info["hits"] >= 1

    def test_unregistered_peer_still_raises(self, topology):
        model = LatencyModel(topology)
        model.register_peer("a", 10)
        with pytest.raises(KeyError):
            model.latency_ms("a", "ghost")
