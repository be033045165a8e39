"""The inlined draw loops consume the generators exactly as the stdlib calls do.

``randbelow_many``, ``sample_rows``, ``ZipfSampler.sample_many`` and the
arrival / assignment loops re-implement ``Random._randbelow`` (``getrandbits(k)``
with rejection), ``Random.sample``, ``Random.expovariate`` and ``ZipfSampler.sample``
inline, and ``RandomStreams.one_shot_uniform`` draws from the C generator
directly.  The committed goldens
depend on them drawing what ``rng.choice`` / ``randint`` / ``randrange`` /
``expovariate`` / ``sample`` draw — same values, same generator state
afterwards — on every supported interpreter; this file is what fails if a
Python release changes one of those stdlib protocols.
"""

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.network.topology import Topology, TopologyConfig
from repro.sim.rng import RandomStreams, derive_seed, randbelow_many, sample_rows
from repro.workload.assignment import ClientAssigner
from repro.workload.generator import QueryGenerator, WorkloadConfig
from repro.workload.zipf import ZipfSampler

SEEDS = st.integers(0, 2**32)


@settings(max_examples=200, deadline=None)
@given(SEEDS, st.integers(1, 5000), st.integers(0, 40))
def test_randbelow_many_is_randrange_randint_and_choice(seed, n, count):
    inlined, by_randrange, by_randint, by_choice = (random.Random(seed) for _ in range(4))
    draws = randbelow_many(inlined, n, count)
    assert draws == [by_randrange.randrange(n) for _ in range(count)]
    assert draws == [by_randint.randint(0, n - 1) for _ in range(count)]
    population = range(n)
    assert draws == [by_choice.choice(population) for _ in range(count)]
    state = inlined.getstate()
    assert state == by_randrange.getstate() == by_randint.getstate() == by_choice.getstate()


def test_randbelow_many_rejects_an_empty_range():
    with pytest.raises(ValueError):
        randbelow_many(random.Random(1), 0, 3)


@pytest.mark.parametrize("seed", [0, 1, 2**31 + 7])
def test_sample_rows_is_rng_sample_on_both_branches(seed):
    # n <= 21 (+ 4**ceil(log(3k, 4)) for k > 5) copies the population into a
    # shrinking pool, anything larger tracks picks in a set: every (n, k) the
    # gossip subset can meet and the boundaries between the two.
    branches = set()
    for n in [*range(1, 201), 500, 1000]:
        rows = [[-i, f"c{i}", None] for i in range(n)]  # view rows: unhashable
        for k in range(0, min(n, 30) + 1):
            inlined, stdlib = random.Random(seed + 31 * n + k), random.Random(seed + 31 * n + k)
            picked = sample_rows(inlined, rows, k)
            expected = stdlib.sample(rows, k)
            assert len(picked) == k and all(a is b for a, b in zip(picked, expected)), (n, k)
            assert inlined.getstate() == stdlib.getstate(), (n, k)
            branches.add(n <= 21 + (4 ** math.ceil(math.log(k * 3, 4)) if k > 5 else 0))
    assert branches == {True, False}


def test_sample_rows_rejects_what_rng_sample_rejects():
    with pytest.raises(ValueError):
        sample_rows(random.Random(1), [1, 2, 3], 4)
    with pytest.raises(ValueError):
        sample_rows(random.Random(1), [1, 2, 3], -1)


@settings(max_examples=100, deadline=None)
@given(SEEDS, st.text(min_size=1, max_size=12), st.floats(-1e3, 1e3), st.floats(0.0, 1e4),
       st.integers(1, 5))
def test_one_shot_uniform_is_the_kth_uniform_of_a_python_level_stream(
    seed, name, low, width, starts
):
    # The C-seeded throw-away generator against random.Random(seed).uniform:
    # the k-th start of a periodic process replays k-1 draws first.
    high = low + width
    reference = random.Random(derive_seed(seed, name))
    expected = [reference.uniform(low, high) for _ in range(starts)]
    streams = RandomStreams(seed)
    assert [streams.one_shot_uniform(name, low, high) for _ in range(starts)] == expected
    # ... and a stream that takes the name over continues where they stopped.
    assert streams.stream(name).getstate() == reference.getstate()


@settings(max_examples=60, deadline=None)
@given(
    SEEDS,
    st.integers(1, 400),
    st.sampled_from([0.0, 0.4, 0.8, 1.3]),
    st.integers(0, 200),
)
def test_sample_many_is_repeated_sample(seed, population, alpha, count):
    sampler = ZipfSampler(population, alpha)
    batched, single = random.Random(seed), random.Random(seed)
    assert list(sampler.sample_many(batched, count)) == [
        sampler.sample(single) for _ in range(count)
    ]
    assert batched.getstate() == single.getstate()


WORKLOAD_STREAMS = (
    "workload:arrival",
    "workload:website",
    "workload:zipf",
    "workload:locality",
    "workload:originator",
)


@pytest.mark.parametrize("arrival", ["poisson", "uniform"])
@pytest.mark.parametrize("seed", [3, 17, 101])
def test_generate_and_assign_leave_every_stream_where_the_object_path_does(seed, arrival):
    config = WorkloadConfig(
        num_websites=9,
        active_websites=3,  # not a power of two: the rejection loop rejects
        objects_per_website=50,
        num_localities=3,
        query_rate_per_s=2.5,
        arrival_process=arrival,
    )
    topology = Topology(TopologyConfig(num_hosts=200, num_localities=3), RandomStreams(5))
    object_streams, array_streams = RandomStreams(seed), RandomStreams(seed)
    object_gen = QueryGenerator(config, object_streams)
    array_gen = QueryGenerator(config, array_streams)
    expected = list(object_gen.generate(900.0))  # expovariate / choice / randint / sample
    trace = array_gen.generate_trace(900.0)
    assert list(trace.iter_queries()) == expected
    for name in WORKLOAD_STREAMS:
        assert (
            object_streams.stream(name).getstate() == array_streams.stream(name).getstate()
        ), name

    kwargs = dict(max_clients_per_overlay=12, reserved_hosts={0, 1})
    object_assigner = ClientAssigner(topology, object_streams, **kwargs)
    array_assigner = ClientAssigner(topology, array_streams, **kwargs)
    resolved = array_assigner.assign_trace(trace)
    assert list(resolved.iter_queries()) == object_assigner.assign_all(expected)
    assert (
        object_streams.stream("assign:existing").getstate()
        == array_streams.stream("assign:existing").getstate()
    )
