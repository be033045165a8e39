"""Array-backed trace generation: bit-identity with the object path.

The paper-scale fast path (``generate_trace`` / ``assign_trace`` /
``ResolvedTraceArrays.dispatcher``) must be a pure representation change:
same queries, same hosts, same random-stream states — the committed golden
digests depend on it.
"""

import pytest

from repro.network.topology import Topology, TopologyConfig
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.workload.assignment import ClientAssigner
from repro.workload.generator import QueryGenerator, WorkloadConfig


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
    return (
        QueryGenerator(config, RandomStreams(seed)),
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
        assert list(trace.iter_queries()) == expected

    def test_stream_states_identical_after_generation(self):
        object_gen, array_gen = _generators(_config())
        list(object_gen.generate(600.0))
        array_gen.generate_trace(600.0)
        assert object_gen.queries_generated == array_gen.queries_generated
        for name in STREAMS:
            assert (
                object_gen._streams.stream(name).random()
                == array_gen._streams.stream(name).random()
            ), name

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(arrival_process="uniform"),
            dict(locality_weights=(5.0, 2.0, 1.0)),
            dict(zipf_alpha=0.0),
            dict(new_client_bias=1.0),
        ],
    )
    def test_variants_identical(self, overrides):
        config = _config(**overrides)
        object_gen, array_gen = _generators(config, seed=23)
        expected = list(object_gen.generate(600.0))
        trace = array_gen.generate_trace(600.0)
        assert list(trace.iter_queries()) == expected

    def test_start_time_offset(self):
        object_gen, array_gen = _generators(_config())
        expected = list(object_gen.generate(300.0, start_time=100.0))
        trace = array_gen.generate_trace(300.0, start_time=100.0)
        assert list(trace.iter_queries()) == expected

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
            ClientAssigner(topology, RandomStreams(seed), **kwargs),
            ClientAssigner(topology, RandomStreams(seed), **kwargs),
        )

    def test_resolved_identical_to_object_path(self, topology):
        object_gen, array_gen = _generators(_config())
        object_assigner, array_assigner = self._assigners(topology)
        expected = object_assigner.assign_all(object_gen.generate(1800.0))
        resolved = array_assigner.assign_trace(array_gen.generate_trace(1800.0))
        assert len(resolved) == len(expected)
        assert list(resolved.iter_queries()) == expected

    def test_replayer_replays_in_order(self, topology):
        _, array_gen = _generators(_config())
        _, array_assigner = self._assigners(topology)
        resolved = array_assigner.assign_trace(array_gen.generate_trace(900.0))
        seen = []
        fire = resolved.replayer(lambda *row: seen.append(row))
        sim = Simulator(seed=1)
        sim.schedule_trace(resolved.times, fire)
        sim.run()
        assert seen == [
            (q.query_id, q.time, q.website, q.object_id, q.locality, q.client_host)
            for q in resolved.iter_queries()
        ]

    def test_overlay_capacity_respected(self, topology):
        _, array_gen = _generators(_config())
        _, array_assigner = self._assigners(topology)
        resolved = array_assigner.assign_trace(array_gen.generate_trace(3600.0))
        for website, locality in {
            (resolved.websites[resolved.website_index[i]].name, resolved.locality[i])
            for i in range(len(resolved))
        }:
            assert array_assigner.num_clients(website, locality) <= 15
