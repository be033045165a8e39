"""Calendar event-queue backend: equivalence with the heap, pooling, engine wiring.

The calendar queue is a drop-in replacement for the tuple heap — every test
here nails the contract down: identical pop order (including cancellation and
reschedule interleavings), identical engine behaviour, and byte-identical
scenario digests across backends.
"""

import random

import pytest

from repro.sim.calendar import CalendarEventQueue
from repro.sim.engine import SimulationError, Simulator
from repro.sim.events import EventQueue


def _drain(queue):
    order = []
    while True:
        event = queue.pop()
        if event is None:
            return order
        order.append((event.time, event.sequence, event.label))


class TestOrderEquivalence:
    def test_random_pushes_pop_in_heap_order(self):
        rng = random.Random(11)
        heap, calendar = EventQueue(), CalendarEventQueue()
        for i in range(4000):
            t = rng.uniform(0.0, 500.0)
            heap.push(t, lambda: None, label=str(i))
            calendar.push(t, lambda: None, label=str(i))
        assert _drain(calendar) == _drain(heap)

    def test_cancellations_are_equivalent(self):
        rng = random.Random(5)
        heap, calendar = EventQueue(), CalendarEventQueue()
        handles = []
        for i in range(3000):
            t = rng.uniform(0.0, 100.0)
            handles.append((heap.push(t, lambda: None), calendar.push(t, lambda: None)))
        for h, c in handles[::3]:
            heap.cancel(h)
            calendar.cancel(c)
        assert len(calendar) == len(heap)
        assert _drain(calendar) == _drain(heap)

    def test_interleaved_push_pop_reschedule(self):
        rng = random.Random(3)
        heap, calendar = EventQueue(), CalendarEventQueue()
        for step in range(2000):
            t = rng.uniform(0.0, 50.0)
            heap.push(t, lambda: None)
            calendar.push(t, lambda: None)
            if step % 5 == 4:
                h, c = heap.pop(), calendar.pop()
                assert (h.time, h.sequence) == (c.time, c.sequence)
                # Re-arm the popped handles identically.
                heap.reschedule(h, h.time + 10.0)
                calendar.reschedule(c, c.time + 10.0)
        assert _drain(calendar) == _drain(heap)

    def test_extend_matches_heap_extend(self):
        times = [float(i % 97) * 1.5 for i in range(1000)]
        heap, calendar = EventQueue(), CalendarEventQueue()
        heap.extend((t, lambda: None) for t in times)
        calendar.extend((t, lambda: None) for t in times)
        assert _drain(calendar) == _drain(heap)

    def test_pop_before_horizon_semantics(self):
        calendar = CalendarEventQueue()
        calendar.push(1.0, lambda: None)
        calendar.push(5.0, lambda: None)
        assert calendar.pop_before(0.5) is None
        assert bool(calendar)  # distinguishable from empty
        assert calendar.pop_before(2.0).time == 1.0
        assert calendar.pop_before(2.0) is None
        assert calendar.pop_before(None).time == 5.0
        assert calendar.pop_before(None) is None
        assert not calendar


class TestCalendarInternals:
    def test_width_tunes_on_first_bulk_extend(self):
        calendar = CalendarEventQueue()
        default_width = calendar.bucket_width
        calendar.extend((float(i), lambda: None) for i in range(1000))
        assert calendar.bucket_width != default_width
        # ~4 events per bucket over a 0..999 span
        assert 1.0 <= calendar.bucket_width <= 16.0

    def test_explicit_width_is_not_retuned(self):
        calendar = CalendarEventQueue(bucket_width=2.5)
        calendar.extend((float(i), lambda: None) for i in range(1000))
        assert calendar.bucket_width == 2.5

    def test_invalid_width_rejected(self):
        with pytest.raises(ValueError):
            CalendarEventQueue(bucket_width=0.0)

    def test_push_behind_the_sorted_head_bucket(self):
        # Sort the head bucket by popping once, then insert an earlier entry.
        calendar = CalendarEventQueue(bucket_width=1.0)
        calendar.push(10.0, lambda: None, label="late")
        assert calendar.peek_time() == 10.0  # materialises the head bucket
        calendar.push(1.0, lambda: None, label="early")
        order = _drain(calendar)
        assert [label for _, _, label in order] == ["early", "late"]

    def test_compaction_drops_cancelled_entries(self):
        calendar = CalendarEventQueue(bucket_width=1.0)
        handles = [calendar.push(float(i % 50), lambda: None) for i in range(1000)]
        for handle in handles[:900]:
            calendar.cancel(handle)
        # Automatic compaction keeps the dead backlog below the trigger
        # threshold (mirroring the heap backend's lazy-deletion policy) ...
        assert calendar.dead_entries < 64
        # ... and an explicit compact drops every cancelled entry.
        calendar.compact()
        assert calendar.dead_entries == 0
        assert calendar.heap_size == len(calendar) == 100

    def test_negative_time_rejected(self):
        calendar = CalendarEventQueue()
        with pytest.raises(ValueError):
            calendar.push(-1.0, lambda: None)
        with pytest.raises(ValueError):
            calendar.extend([(-1.0, lambda: None)])


class TestEngineIntegration:
    def test_unknown_backend_rejected(self):
        with pytest.raises(SimulationError):
            Simulator(queue_backend="btree")

    @pytest.mark.parametrize("backend", ["heap", "calendar"])
    def test_schedule_trace_fires_in_order_with_bounded_handles(self, backend):
        sim = Simulator(seed=1, queue_backend=backend)
        times = sorted(random.Random(9).uniform(0.0, 100.0) for _ in range(5000))
        fired = []
        sim.schedule_trace(times, lambda: fired.append(sim.now))
        # A trace source is merged with the queue, never loaded into it: no
        # handle per entry, and the entries still count as pending.
        assert len(sim._queue) == 0
        assert sim.pending_events == len(times)
        sim.run(until=100.0)
        assert fired == times
        # events_fired counts exactly the trace: there is no loader event
        assert sim.events_fired == len(times)
        assert sim.pending_events == 0

    def test_schedule_trace_rejects_times_behind_the_clock(self):
        sim = Simulator(seed=1)
        sim.schedule_trace([1.0, 2.0], lambda: None)
        sim.run(until=5.0)
        with pytest.raises(SimulationError):
            sim.schedule_trace([1.0], lambda: None)

    def test_call_every_and_cancel_work_on_calendar_backend(self):
        sim = Simulator(seed=1, queue_backend="calendar")
        ticks = []
        handle = sim.call_every(1.0, lambda: ticks.append(sim.now))
        sim.run(until=5.5)
        handle.cancel()
        sim.run(until=10.0)
        assert ticks == [1.0, 2.0, 3.0, 4.0, 5.0]

    @pytest.mark.parametrize("backend", ["heap", "calendar"])
    def test_deterministic_across_backends(self, backend):
        sim = Simulator(seed=7, queue_backend=backend)
        log = []
        sim.schedule_batch(((float(i) * 0.37, lambda i=i: log.append(i)) for i in range(500)))
        sim.call_every(13.0, lambda: log.append(-1))
        sim.run(until=100.0)
        if backend == "heap":
            type(self).reference = log  # noqa: B010 - stash for the next param
        else:
            assert log == type(self).reference
