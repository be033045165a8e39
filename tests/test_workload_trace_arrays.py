"""Array-backed trace generation: bit-identity with the per-query reference.

The trace pipeline (``generate_trace`` / ``assign_trace``, replayed by a
system's ``trace_replay``) batches its draws per stream; it must
produce what the one-query-at-a-time reference in
``tests/reference/workload.py`` produces: same queries, same hosts, same
random-stream states — the committed golden digests depend on it.
"""

import pytest

from repro.baselines.squirrel import Squirrel
from repro.metrics.collectors import OUTCOME_CODES, OutcomeColumns, QueryOutcome
from repro.network.topology import Topology, TopologyConfig
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.workload.assignment import ClientAssigner
from repro.workload.generator import QueryGenerator, WorkloadConfig
from tests.reference.workload import (
    ReferenceAssigner,
    ReferenceWorkload,
    resolved_queries,
    trace_queries,
)

OUTCOMES = tuple(QueryOutcome)


def _config(**overrides):
    defaults = dict(
        num_websites=12,
        active_websites=3,
        objects_per_website=40,
        num_localities=3,
        query_rate_per_s=3.0,
    )
    defaults.update(overrides)
    return WorkloadConfig(**defaults)


def _generators(config, seed=17):
    """(reference, trace) generators over two registries of the same seed."""
    return (
        ReferenceWorkload(config, RandomStreams(seed)),
        QueryGenerator(config, RandomStreams(seed)),
    )


STREAMS = (
    "workload:arrival",
    "workload:website",
    "workload:zipf",
    "workload:locality",
    "workload:originator",
)


class TestGenerateTrace:
    def test_queries_identical_to_object_path(self):
        object_gen, array_gen = _generators(_config())
        expected = list(object_gen.generate(1200.0))
        trace = array_gen.generate_trace(1200.0)
        assert len(trace) == len(expected)
        assert trace_queries(trace) == expected

    def test_a_trace_prefix_is_the_reference_batch(self):
        # Queries never depend on the horizon: the first k of a trace are the
        # first k queries drawn one at a time.
        object_gen, array_gen = _generators(_config())
        trace = array_gen.generate_trace(600.0)
        assert object_gen.generate_batch(100) == trace_queries(trace)[:100]

    def test_stream_states_identical_after_generation(self):
        config = _config()
        object_streams, array_streams = RandomStreams(17), RandomStreams(17)
        object_gen = ReferenceWorkload(config, object_streams)
        array_gen = QueryGenerator(config, array_streams)
        list(object_gen.generate(600.0))
        array_gen.generate_trace(600.0)
        for name in STREAMS:
            assert (
                object_streams.stream(name).getstate() == array_streams.stream(name).getstate()
            ), name
        # The horizon-crossing draw advanced the query ids on both sides.
        follow_on = array_gen.generate_trace(10.0, start_time=600.0)
        assert follow_on.first_query_id == object_gen.queries_generated

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(arrival_process="uniform"),
            dict(locality_weights=(5.0, 2.0, 1.0)),
            dict(zipf_alpha=0.0),
        ],
    )
    def test_variants_identical(self, overrides):
        config = _config(**overrides)
        object_gen, array_gen = _generators(config, seed=23)
        expected = list(object_gen.generate(600.0))
        trace = array_gen.generate_trace(600.0)
        assert trace_queries(trace) == expected

    def test_start_time_offset(self):
        object_gen, array_gen = _generators(_config())
        expected = list(object_gen.generate(300.0, start_time=100.0))
        trace = array_gen.generate_trace(300.0, start_time=100.0)
        assert trace_queries(trace) == expected

    def test_invalid_duration_rejected(self):
        _, array_gen = _generators(_config())
        with pytest.raises(ValueError):
            array_gen.generate_trace(0.0)

    def test_columns_are_compact(self):
        _, array_gen = _generators(_config())
        trace = array_gen.generate_trace(1200.0)
        # A handful of bytes per query, not hundreds.
        assert trace.nbytes / len(trace) < 32


class TestAssignTrace:
    @pytest.fixture()
    def topology(self):
        return Topology(TopologyConfig(num_hosts=240, num_localities=3), RandomStreams(5))

    def _assigners(self, topology, seed=29):
        kwargs = dict(max_clients_per_overlay=15, reserved_hosts={0, 1, 2})
        return (
            ReferenceAssigner(topology, RandomStreams(seed), **kwargs),
            ClientAssigner(topology, RandomStreams(seed), **kwargs),
        )

    def test_resolved_identical_to_object_path(self, topology):
        object_gen, array_gen = _generators(_config())
        object_assigner, array_assigner = self._assigners(topology)
        expected = object_assigner.assign_all(object_gen.generate(1800.0))
        resolved = array_assigner.assign_trace(array_gen.generate_trace(1800.0))
        assert len(resolved) == len(expected)
        assert resolved_queries(resolved) == expected

    def test_a_replay_answers_the_rows_in_trace_order(self, topology):
        _, array_gen = _generators(_config())
        _, array_assigner = self._assigners(topology)
        resolved = array_assigner.assign_trace(array_gen.generate_trace(900.0))
        replayed, one_by_one = (
            Squirrel(Simulator(seed=1), topology) for _ in range(2)
        )
        for system in (replayed, one_by_one):
            system.bootstrap()
        rows = OutcomeColumns(len(resolved), keep_providers=True)
        sim = replayed.sim
        sim.schedule_trace(resolved.times, replayed.trace_replay(resolved, rows))
        sim.run()
        expected = [
            one_by_one.process_query(q.website, q.object_id, q.locality, q.client_host)
            for q in resolved_queries(resolved)
        ]
        assert 0 < rows.outcomes.count(OUTCOME_CODES[QueryOutcome.PEER_HIT]) < len(expected)
        assert [
            (OUTCOMES[code], latency, distance, hops, provider, failures)
            for code, latency, distance, hops, provider, failures in zip(
                rows.outcomes, rows.latencies, rows.distances, rows.hops,
                rows.providers, rows.failures,
            )
        ] == expected

    def test_overlay_capacity_respected(self, topology):
        _, array_gen = _generators(_config())
        _, array_assigner = self._assigners(topology)
        resolved = array_assigner.assign_trace(array_gen.generate_trace(3600.0))
        clients = {}
        for i in range(len(resolved)):
            overlay = (resolved.website_index[i], resolved.locality[i])
            clients.setdefault(overlay, set()).add(resolved.client_host[i])
        assert clients and all(len(hosts) <= 15 for hosts in clients.values())
