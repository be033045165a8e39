"""Unit tests for the query generator and client assignment."""

import pytest

from repro.network.topology import Topology, TopologyConfig
from repro.sim.rng import RandomStreams
from repro.workload.assignment import ClientAssigner
from repro.workload.catalog import Catalog
from repro.workload.generator import QueryGenerator, WorkloadConfig


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
        with pytest.raises(ValueError):
            WorkloadConfig(new_client_bias=1.5)
        with pytest.raises(ValueError):
            WorkloadConfig(arrival_process="bursty")
        with pytest.raises(ValueError):
            WorkloadConfig(num_localities=2, locality_weights=(1.0,))


class TestQueryGenerator:
    def test_queries_target_only_active_websites(self, generator: QueryGenerator):
        active = {site.name for site in generator.active_websites}
        for query in generator.generate_batch(300):
            assert query.website in active

    def test_objects_belong_to_their_website(self, generator: QueryGenerator):
        for query in generator.generate_batch(100):
            site = generator.catalog.website(query.website)
            assert site.owns(query.object_id)

    def test_localities_within_range(self, generator: QueryGenerator, workload_config):
        for query in generator.generate_batch(200):
            assert 0 <= query.locality < workload_config.num_localities

    def test_times_are_increasing(self, generator: QueryGenerator):
        queries = generator.generate_batch(100)
        times = [q.time for q in queries]
        assert all(a <= b for a, b in zip(times, times[1:]))

    def test_generate_respects_duration(self, generator: QueryGenerator):
        queries = list(generator.generate(60.0))
        assert queries, "one minute at 5 q/s must produce queries"
        assert all(q.time < 60.0 for q in queries)

    def test_rate_is_approximately_respected(self, workload_config):
        generator = QueryGenerator(workload_config, RandomStreams(3))
        queries = list(generator.generate(600.0))
        expected = workload_config.query_rate_per_s * 600
        assert expected * 0.8 <= len(queries) <= expected * 1.2

    def test_uniform_arrivals_are_evenly_spaced(self):
        config = WorkloadConfig(
            num_websites=2, active_websites=1, objects_per_website=5,
            query_rate_per_s=2.0, arrival_process="uniform",
        )
        generator = QueryGenerator(config, RandomStreams(1))
        queries = generator.generate_batch(10)
        gaps = [b.time - a.time for a, b in zip(queries, queries[1:])]
        assert all(gap == pytest.approx(0.5) for gap in gaps)

    def test_same_seed_same_workload(self, workload_config):
        a = QueryGenerator(workload_config, RandomStreams(5)).generate_batch(50)
        b = QueryGenerator(workload_config, RandomStreams(5)).generate_batch(50)
        assert [(q.website, q.object_id, q.locality) for q in a] == [
            (q.website, q.object_id, q.locality) for q in b
        ]

    def test_zipf_skew_visible_in_object_popularity(self, generator: QueryGenerator):
        from collections import Counter

        counts = Counter(q.object_id for q in generator.generate_batch(2000))
        most_common = counts.most_common(1)[0][1]
        assert most_common > 2000 / 20  # far above uniform share

    def test_locality_weights_bias_origin(self):
        config = WorkloadConfig(
            num_websites=2, active_websites=1, objects_per_website=5,
            num_localities=2, locality_weights=(0.9, 0.1),
        )
        generator = QueryGenerator(config, RandomStreams(8))
        queries = generator.generate_batch(500)
        share_loc0 = sum(1 for q in queries if q.locality == 0) / len(queries)
        assert share_loc0 > 0.8

    def test_catalog_smaller_than_active_rejected(self, workload_config):
        tiny_catalog = Catalog.synthetic(1, 5)
        with pytest.raises(ValueError):
            QueryGenerator(workload_config, RandomStreams(1), catalog=tiny_catalog)

    def test_generate_rejects_non_positive_duration(self, generator: QueryGenerator):
        with pytest.raises(ValueError):
            list(generator.generate(0.0))

    def test_generate_batch_rejects_negative_count(self, generator: QueryGenerator):
        with pytest.raises(ValueError):
            generator.generate_batch(-1)


class TestClientAssigner:
    @pytest.fixture
    def topology(self) -> Topology:
        return Topology(TopologyConfig(num_hosts=90, num_localities=3), RandomStreams(2))

    def test_new_clients_come_from_the_query_locality(self, topology, generator):
        assigner = ClientAssigner(topology, RandomStreams(3), max_clients_per_overlay=10)
        for query in generator.generate_batch(50):
            resolved = assigner.assign(query)
            if resolved is None:
                continue
            assert topology.locality_of(resolved.client_host) == query.locality

    def test_overlay_size_is_capped(self, topology, generator):
        cap = 5
        assigner = ClientAssigner(topology, RandomStreams(3), max_clients_per_overlay=cap)
        for query in generator.generate_batch(500):
            assigner.assign(query)
        for website in {q.website for q in generator.generate_batch(10)}:
            for locality in range(3):
                assert assigner.num_clients(website, locality) <= cap

    def test_existing_clients_are_reused(self, topology, generator):
        assigner = ClientAssigner(topology, RandomStreams(3), max_clients_per_overlay=3)
        resolved = assigner.assign_all(generator.generate_batch(200))
        reused = [r for r in resolved if not r.is_new_client]
        assert reused, "with a tiny overlay cap most queries must reuse existing clients"
        new_hosts = {r.client_host for r in resolved if r.is_new_client}
        assert all(r.client_host in new_hosts for r in reused)

    def test_reserved_hosts_never_assigned(self, topology, generator):
        reserved = set(topology.hosts_in_locality(0)[:10])
        assigner = ClientAssigner(
            topology, RandomStreams(3), max_clients_per_overlay=10, reserved_hosts=reserved
        )
        resolved = assigner.assign_all(generator.generate_batch(300))
        assert all(r.client_host not in reserved for r in resolved)

    def test_invalid_cap_rejected(self, topology):
        with pytest.raises(ValueError):
            ClientAssigner(topology, RandomStreams(1), max_clients_per_overlay=0)
