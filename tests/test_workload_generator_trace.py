"""Unit tests for the query generator and client assignment.

Behaviour is checked on the one trace pipeline: ``generate_trace`` and
``assign_trace``, whose queries ``tests/reference/workload.py`` materialises.
"""

import pytest

from repro.network.topology import Topology, TopologyConfig
from repro.sim.rng import RandomStreams
from repro.workload.assignment import ClientAssigner
from repro.workload.catalog import Catalog
from repro.workload.generator import QueryGenerator, WorkloadConfig
from tests.reference.workload import resolved_queries, trace_queries


@pytest.fixture
def workload_config() -> WorkloadConfig:
    return WorkloadConfig(
        num_websites=5,
        active_websites=2,
        objects_per_website=20,
        num_localities=3,
        query_rate_per_s=5.0,
    )


@pytest.fixture
def generator(workload_config: WorkloadConfig) -> QueryGenerator:
    return QueryGenerator(workload_config, RandomStreams(17))


def queries(generator: QueryGenerator, duration_s: float):
    return trace_queries(generator.generate_trace(duration_s))


class TestWorkloadConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            WorkloadConfig(num_websites=0)
        with pytest.raises(ValueError):
            WorkloadConfig(active_websites=0)
        with pytest.raises(ValueError):
            WorkloadConfig(num_websites=3, active_websites=5)
        with pytest.raises(ValueError):
            WorkloadConfig(query_rate_per_s=0)
        with pytest.raises(ValueError, match="zipf_alpha"):
            WorkloadConfig(zipf_alpha=-0.1)
        with pytest.raises(ValueError):
            WorkloadConfig(arrival_process="bursty")
        with pytest.raises(ValueError):
            WorkloadConfig(num_localities=2, locality_weights=(1.0,))


class TestQueryGenerator:
    def test_queries_target_only_active_websites(self, generator: QueryGenerator):
        active = {site.name for site in generator.active_websites}
        for query in queries(generator, 60.0):
            assert query.website in active

    def test_objects_belong_to_their_website(self, generator: QueryGenerator):
        for query in queries(generator, 20.0):
            site = generator.catalog.website(query.website)
            assert query.object_id in site.object_ids()

    def test_localities_within_range(self, generator: QueryGenerator, workload_config):
        for query in queries(generator, 40.0):
            assert 0 <= query.locality < workload_config.num_localities

    def test_times_are_increasing(self, generator: QueryGenerator):
        times = [q.time for q in queries(generator, 20.0)]
        assert all(a <= b for a, b in zip(times, times[1:]))

    def test_generate_respects_duration(self, generator: QueryGenerator):
        minute = queries(generator, 60.0)
        assert minute, "one minute at 5 q/s must produce queries"
        assert all(q.time < 60.0 for q in minute)

    def test_rate_is_approximately_respected(self, workload_config):
        generator = QueryGenerator(workload_config, RandomStreams(3))
        expected = workload_config.query_rate_per_s * 600
        assert expected * 0.8 <= len(generator.generate_trace(600.0)) <= expected * 1.2

    def test_uniform_arrivals_are_evenly_spaced(self):
        config = WorkloadConfig(
            num_websites=2, active_websites=1, objects_per_website=5,
            query_rate_per_s=2.0, arrival_process="uniform",
        )
        generator = QueryGenerator(config, RandomStreams(1))
        times = list(generator.generate_trace(5.0).times)
        assert len(times) == 9
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert all(gap == pytest.approx(0.5) for gap in gaps)

    def test_same_seed_same_workload(self, workload_config):
        a = queries(QueryGenerator(workload_config, RandomStreams(5)), 10.0)
        b = queries(QueryGenerator(workload_config, RandomStreams(5)), 10.0)
        assert [(q.website, q.object_id, q.locality) for q in a] == [
            (q.website, q.object_id, q.locality) for q in b
        ]

    def test_zipf_skew_visible_in_object_popularity(self, generator: QueryGenerator):
        from collections import Counter

        counts = Counter(q.object_id for q in queries(generator, 400.0))
        most_common = counts.most_common(1)[0][1]
        assert most_common > sum(counts.values()) / 20  # far above uniform share

    def test_locality_weights_bias_origin(self):
        config = WorkloadConfig(
            num_websites=2, active_websites=1, objects_per_website=5,
            num_localities=2, locality_weights=(0.9, 0.1),
        )
        generator = QueryGenerator(config, RandomStreams(8))
        drawn = queries(generator, 90.0)
        share_loc0 = sum(1 for q in drawn if q.locality == 0) / len(drawn)
        assert share_loc0 > 0.8

    def test_catalog_smaller_than_active_rejected(self, workload_config):
        tiny_catalog = Catalog.synthetic(1, 5)
        with pytest.raises(ValueError):
            QueryGenerator(workload_config, RandomStreams(1), catalog=tiny_catalog)

    def test_generate_rejects_non_positive_duration(self, generator: QueryGenerator):
        with pytest.raises(ValueError):
            generator.generate_trace(0.0)


class TestClientAssigner:
    @pytest.fixture
    def topology(self) -> Topology:
        return Topology(TopologyConfig(num_hosts=90, num_localities=3), RandomStreams(2))

    def test_new_clients_come_from_the_query_locality(self, topology, generator):
        assigner = ClientAssigner(topology, RandomStreams(3), max_clients_per_overlay=10)
        trace = generator.generate_trace(10.0)
        resolved = resolved_queries(assigner.assign_trace(trace))
        assert len(resolved) == len(trace)
        for bound in resolved:
            assert topology.locality_of(bound.client_host) == bound.locality

    def test_overlay_size_is_capped(self, topology, generator):
        cap = 5
        assigner = ClientAssigner(topology, RandomStreams(3), max_clients_per_overlay=cap)
        resolved = assigner.assign_trace(generator.generate_trace(100.0))
        clients = {}
        for i in range(len(resolved)):
            overlay = (resolved.website_index[i], resolved.locality[i])
            clients.setdefault(overlay, set()).add(resolved.client_host[i])
        assert clients and all(len(hosts) <= cap for hosts in clients.values())

    def test_existing_clients_are_reused(self, topology, generator):
        assigner = ClientAssigner(topology, RandomStreams(3), max_clients_per_overlay=3)
        resolved = resolved_queries(assigner.assign_trace(generator.generate_trace(40.0)))
        reused = [r for r in resolved if not r.is_new_client]
        assert reused, "with a tiny overlay cap most queries must reuse existing clients"
        new_hosts = {r.client_host for r in resolved if r.is_new_client}
        assert all(r.client_host in new_hosts for r in reused)

    def test_reserved_hosts_never_assigned(self, topology, generator):
        reserved = set(topology.hosts_in_locality(0)[:10])
        assigner = ClientAssigner(
            topology, RandomStreams(3), max_clients_per_overlay=10, reserved_hosts=reserved
        )
        resolved = resolved_queries(assigner.assign_trace(generator.generate_trace(60.0)))
        assert all(r.client_host not in reserved for r in resolved)

    def test_invalid_cap_rejected(self, topology):
        with pytest.raises(ValueError):
            ClientAssigner(topology, RandomStreams(1), max_clients_per_overlay=0)
