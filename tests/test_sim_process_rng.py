"""Unit tests for periodic processes and the seeded random streams."""

import random

import pytest

from repro.sim.engine import Simulator
from repro.sim.process import PeriodicProcess
from repro.sim.rng import RandomStreams, derive_seed


class TestPeriodicProcess:
    def test_start_and_fire(self):
        sim = Simulator()
        ticks = []
        process = PeriodicProcess(sim, 10.0, lambda: ticks.append(sim.now), name="tick")
        process.start()
        sim.run(until=45.0)
        assert ticks == [10.0, 20.0, 30.0, 40.0]
        assert process.fired == 4

    def test_jittered_start_within_first_period(self):
        sim = Simulator(seed=3)
        ticks = []
        process = PeriodicProcess(
            sim, 10.0, lambda: ticks.append(sim.now), jitter_stream="jitter:x"
        )
        process.start()
        sim.run(until=10.0)
        assert len(ticks) == 1
        assert 0.0 <= ticks[0] <= 10.0

    def test_stop_prevents_future_firings(self):
        sim = Simulator()
        ticks = []
        process = PeriodicProcess(sim, 5.0, lambda: ticks.append(sim.now))
        process.start()
        sim.at(12.0, process.stop)
        sim.run(until=50.0)
        assert ticks == [5.0, 10.0]
        assert not process.running

    def test_restart_with_new_period(self):
        sim = Simulator()
        ticks = []
        process = PeriodicProcess(sim, 5.0, lambda: ticks.append(sim.now))
        process.start()
        sim.run(until=11.0)
        process.restart(period=2.0)
        sim.run(until=16.0)
        assert ticks[:2] == [5.0, 10.0]
        assert all(b - a == pytest.approx(2.0) for a, b in zip(ticks[2:], ticks[3:]))

    def test_kth_start_sees_the_kth_draw_of_its_jitter_stream(self, recording_simulator):
        """Restarts draw what a retained stream would, without retaining one."""
        sim = recording_simulator(seed=3)
        process = PeriodicProcess(sim, 10.0, lambda: None, jitter_stream="jitter:x")
        for _ in range(4):
            process.restart()
        retained = random.Random(derive_seed(3, "jitter:x"))
        assert [start for _, start in sim.starts] == [
            retained.uniform(0.0, 10.0) for _ in range(4)
        ]

    def test_double_start_is_noop(self):
        sim = Simulator()
        ticks = []
        process = PeriodicProcess(sim, 5.0, lambda: ticks.append(sim.now))
        process.start()
        process.start()
        sim.run(until=6.0)
        assert ticks == [5.0]

    def test_invalid_period_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            PeriodicProcess(sim, 0.0, lambda: None)
        process = PeriodicProcess(sim, 5.0, lambda: None)
        with pytest.raises(ValueError):
            process.restart(period=-1.0)


class TestRandomStreams:
    def test_streams_are_reproducible(self):
        a = RandomStreams(42)
        b = RandomStreams(42)
        assert [a.random("s") for _ in range(20)] == [b.random("s") for _ in range(20)]

    def test_streams_are_independent(self):
        streams = RandomStreams(42)
        before = [streams.random("a") for _ in range(5)]
        # Interleaving draws from another stream must not perturb stream "a".
        fresh = RandomStreams(42)
        _ = [fresh.random("b") for _ in range(100)]
        after = [fresh.random("a") for _ in range(5)]
        assert before == after

    def test_derive_seed_is_stable_and_distinct(self):
        assert derive_seed(1, "x") == derive_seed(1, "x")
        assert derive_seed(1, "x") != derive_seed(1, "y")
        assert derive_seed(1, "x") != derive_seed(2, "x")

    def test_uniform_within_bounds(self):
        streams = RandomStreams(7)
        for _ in range(100):
            value = streams.uniform("u", 2.0, 5.0)
            assert 2.0 <= value <= 5.0

    def test_randint_within_bounds(self):
        streams = RandomStreams(7)
        values = {streams.randint("i", 0, 3) for _ in range(200)}
        assert values <= {0, 1, 2, 3}
        assert len(values) == 4

    def test_choice_and_sample(self):
        streams = RandomStreams(7)
        population = ["a", "b", "c", "d"]
        assert streams.choice("c", population) in population
        sample = streams.sample("s", population, 2)
        assert len(sample) == 2
        assert set(sample) <= set(population)

    def test_sample_larger_than_population_is_clamped(self):
        streams = RandomStreams(7)
        assert sorted(streams.sample("s", [1, 2], 10)) == [1, 2]

    def test_shuffle_returns_permutation(self):
        streams = RandomStreams(7)
        items = list(range(10))
        shuffled = streams.shuffle("sh", items)
        assert sorted(shuffled) == items
        assert items == list(range(10))  # input not mutated

    def test_expovariate_requires_positive_rate(self):
        streams = RandomStreams(7)
        with pytest.raises(ValueError):
            streams.expovariate("e", 0.0)
        assert streams.expovariate("e", 2.0) >= 0.0

    def test_one_shot_draws_follow_the_retained_sequence(self):
        retained = RandomStreams(7)
        expected = [retained.uniform("phase", 0.0, 60.0) for _ in range(5)]
        streams = RandomStreams(7)
        assert [streams.one_shot_uniform("phase", 0.0, 60.0) for _ in range(3)] == expected[:3]
        # stream() takes the name over where the one-shot draws left off ...
        assert streams.stream("phase").uniform(0.0, 60.0) == expected[3]
        # ... and later one-shot draws continue on the now-retained generator.
        assert streams.one_shot_uniform("phase", 0.0, 60.0) == expected[4]
        assert streams.names() == ("phase",)

    def test_one_shot_draws_retain_no_generator(self):
        streams = RandomStreams(7)
        for index in range(100):
            streams.one_shot_uniform(f"jitter:{index}", 0.0, 1.0)
        assert len(streams.names()) == 100
        assert not any(isinstance(value, random.Random) for value in vars_of(streams))

    def test_names_lists_created_streams(self):
        streams = RandomStreams(7)
        streams.random("alpha")
        streams.random("beta")
        assert streams.names() == ("alpha", "beta")


def vars_of(streams: RandomStreams):
    """Every object a ``RandomStreams`` holds, one level into its containers."""
    for slot in RandomStreams.__slots__:
        value = getattr(streams, slot)
        yield value
        if isinstance(value, dict):
            yield from value.values()
