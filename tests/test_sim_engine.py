"""Unit tests for the discrete-event simulator."""

import pytest

from repro.sim.engine import SimulationError, Simulator


class TestScheduling:
    def test_clock_starts_at_zero(self):
        sim = Simulator()
        assert sim.now == 0.0

    def test_after_schedules_relative_to_now(self):
        sim = Simulator()
        times = []
        sim.after(5.0, lambda: times.append(sim.now))
        sim.run()
        assert times == [5.0]

    def test_at_schedules_absolute(self):
        sim = Simulator()
        times = []
        sim.at(3.0, lambda: times.append(sim.now))
        sim.at(7.0, lambda: times.append(sim.now))
        sim.run()
        assert times == [3.0, 7.0]

    def test_scheduling_in_the_past_raises(self):
        sim = Simulator()
        sim.at(10.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.at(5.0, lambda: None)

    def test_negative_delay_raises(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.after(-1.0, lambda: None)

    def test_events_scheduled_during_run_are_executed(self):
        sim = Simulator()
        fired = []

        def chain(depth):
            fired.append(sim.now)
            if depth > 0:
                sim.after(1.0, lambda: chain(depth - 1))

        sim.at(0.0, lambda: chain(3))
        sim.run()
        assert fired == [0.0, 1.0, 2.0, 3.0]


class TestRunControl:
    def test_run_until_horizon_stops_clock_at_horizon(self):
        sim = Simulator()
        fired = []
        sim.at(1.0, lambda: fired.append(1))
        sim.at(100.0, lambda: fired.append(100))
        end = sim.run(until=10.0)
        assert fired == [1]
        assert end == 10.0
        assert sim.now == 10.0

    def test_end_time_bounds_all_runs(self):
        sim = Simulator(end_time=5.0)
        fired = []
        sim.at(2.0, lambda: fired.append(2))
        sim.at(8.0, lambda: fired.append(8))
        sim.run()
        assert fired == [2]
        assert sim.now == 5.0

    def test_run_with_empty_queue_advances_to_horizon(self):
        sim = Simulator()
        assert sim.run(until=42.0) == 42.0

    def test_stop_interrupts_run(self):
        sim = Simulator()
        fired = []
        sim.at(1.0, lambda: fired.append(1))
        sim.at(2.0, lambda: (fired.append(2), sim.stop()))
        sim.at(3.0, lambda: fired.append(3))
        sim.run()
        assert fired == [1, 2]

    def test_run_until_past_is_rejected(self):
        sim = Simulator()
        sim.at(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.run(until=1.0)

    def test_boundary_event_fires_exactly_once(self):
        # ``run(until=W)`` is inclusive: an event scheduled exactly on W fires
        # in the run W closes, once, and a run resumed in strides reproduces
        # the single run's schedule.
        def schedule(sim, fired):
            for t in (1.0, 2.0, 2.0, 4.0, 9.5, 10.0):
                sim.at(t, lambda t=t: fired.append((t, sim.now)))

        strided, fired_strided = Simulator(seed=1, end_time=10.0), []
        schedule(strided, fired_strided)
        for boundary in (2.0, 4.0, 6.0, 8.0, 10.0):
            strided.run(until=boundary)

        single, fired_single = Simulator(seed=1, end_time=10.0), []
        schedule(single, fired_single)
        single.run(until=10.0)

        assert fired_strided == fired_single
        assert strided.events_fired == single.events_fired
        assert len(fired_strided) == 6

    def test_events_fired_counter(self):
        sim = Simulator()
        for t in range(5):
            sim.at(float(t), lambda: None)
        sim.run()
        assert sim.events_fired == 5

    def test_events_fired_is_live_inside_callbacks(self):
        sim = Simulator()
        seen = []
        sim.at(1.0, lambda: seen.append(sim.events_fired))
        sim.at(2.0, lambda: seen.append(sim.events_fired))
        sim.run()
        assert seen == [1, 2]

    def test_cancelled_event_not_executed(self):
        sim = Simulator()
        fired = []
        event = sim.at(1.0, lambda: fired.append("cancelled"))
        sim.at(2.0, lambda: fired.append("kept"))
        sim.cancel(event)
        sim.run()
        assert fired == ["kept"]


class TestStepHorizon:
    def test_step_peeks_instead_of_consuming_past_horizon(self):
        """An event beyond end_time must stay pending, not be silently eaten."""
        sim = Simulator(end_time=5.0)
        sim.at(10.0, lambda: None)
        assert sim.step() is False
        assert sim.now == 5.0
        assert sim.pending_events == 1  # the event was peeked, not consumed
        assert sim.events_fired == 0

    def test_step_executes_events_inside_horizon(self):
        sim = Simulator(end_time=5.0)
        fired = []
        sim.at(1.0, lambda: fired.append(1))
        sim.at(10.0, lambda: fired.append(10))
        assert sim.step() is True
        assert fired == [1]
        assert sim.step() is False
        assert sim.pending_events == 1


class TestBatchScheduling:
    def test_schedule_batch_equivalent_to_at(self):
        sim_batch, sim_at = Simulator(), Simulator()
        fired_batch, fired_at = [], []
        times = [3.0, 1.0, 2.0]
        sim_batch.schedule_batch(
            (t, lambda t=t: fired_batch.append(t)) for t in times
        )
        for t in times:
            sim_at.at(t, lambda t=t: fired_at.append(t))
        sim_batch.run()
        sim_at.run()
        assert fired_batch == fired_at == [1.0, 2.0, 3.0]

    def test_schedule_batch_rejects_past_times(self):
        sim = Simulator()
        sim.at(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_batch([(1.0, lambda: None)])


class TestPeriodic:
    def test_call_every_fires_repeatedly(self):
        sim = Simulator()
        times = []
        sim.call_every(10.0, lambda: times.append(sim.now))
        sim.run(until=35.0)
        assert times == [10.0, 20.0, 30.0]

    def test_call_every_with_custom_start(self):
        sim = Simulator()
        times = []
        sim.call_every(10.0, lambda: times.append(sim.now), start=5.0)
        sim.run(until=30.0)
        assert times == [5.0, 15.0, 25.0]

    def test_periodic_handle_cancel_stops_series(self):
        sim = Simulator()
        times = []
        handle = sim.call_every(10.0, lambda: times.append(sim.now))
        sim.at(25.0, handle.cancel)
        sim.run(until=100.0)
        assert times == [10.0, 20.0]
        assert handle.cancelled

    def test_zero_period_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.call_every(0.0, lambda: None)

    def test_periodic_handle_counts_firings(self):
        sim = Simulator()
        handle = sim.call_every(1.0, lambda: None)
        sim.run(until=5.5)
        assert handle.fired == 5


class TestDeterminism:
    def test_same_seed_same_streams(self):
        sim_a = Simulator(seed=99)
        sim_b = Simulator(seed=99)
        draws_a = [sim_a.streams.random("x") for _ in range(10)]
        draws_b = [sim_b.streams.random("x") for _ in range(10)]
        assert draws_a == draws_b

    def test_different_seed_different_streams(self):
        sim_a = Simulator(seed=1)
        sim_b = Simulator(seed=2)
        assert [sim_a.streams.random("x") for _ in range(5)] != [
            sim_b.streams.random("x") for _ in range(5)
        ]
