"""Unit tests for the event queue primitives."""

import pytest

from repro.sim.events import Event, EventQueue


class TestEventOrdering:
    def test_events_ordered_by_time(self):
        queue = EventQueue()
        fired = []
        queue.push(2.0, lambda: fired.append("b"))
        queue.push(1.0, lambda: fired.append("a"))
        queue.push(3.0, lambda: fired.append("c"))
        while queue:
            queue.pop().callback()
        assert fired == ["a", "b", "c"]

    def test_same_time_events_fire_in_scheduling_order(self):
        queue = EventQueue()
        fired = []
        for label in "abcde":
            queue.push(5.0, lambda l=label: fired.append(l))
        while queue:
            queue.pop().callback()
        assert fired == list("abcde")

    def test_event_comparison_uses_time_then_sequence(self):
        early = Event(time=1.0, sequence=5, callback=lambda: None)
        late = Event(time=2.0, sequence=1, callback=lambda: None)
        assert early < late
        tie_a = Event(time=1.0, sequence=1, callback=lambda: None)
        tie_b = Event(time=1.0, sequence=2, callback=lambda: None)
        assert tie_a < tie_b


class TestEventQueueOperations:
    def test_len_reflects_live_events(self):
        queue = EventQueue()
        assert len(queue) == 0
        e1 = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        assert len(queue) == 2
        queue.cancel(e1)
        assert len(queue) == 1

    def test_pop_skips_cancelled_events(self):
        queue = EventQueue()
        first = queue.push(1.0, lambda: "first")
        queue.push(2.0, lambda: "second")
        queue.cancel(first)
        popped = queue.pop()
        assert popped.time == 2.0

    def test_pop_empty_returns_none(self):
        queue = EventQueue()
        assert queue.pop() is None

    def test_peek_time_returns_next_live_time(self):
        queue = EventQueue()
        assert queue.peek_time() is None
        first = queue.push(1.0, lambda: None)
        queue.push(4.0, lambda: None)
        assert queue.peek_time() == 1.0
        queue.cancel(first)
        assert queue.peek_time() == 4.0

    def test_negative_time_rejected(self):
        queue = EventQueue()
        with pytest.raises(ValueError):
            queue.push(-1.0, lambda: None)

    def test_cancel_twice_is_idempotent(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        queue.cancel(event)
        queue.cancel(event)
        assert len(queue) == 1

    def test_clear_empties_the_queue(self):
        queue = EventQueue()
        queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        queue.clear()
        assert len(queue) == 0
        assert queue.pop() is None

    def test_event_label_preserved(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None, label="gossip")
        assert event.label == "gossip"

    def test_bool_protocol(self):
        queue = EventQueue()
        assert not queue
        queue.push(0.0, lambda: None)
        assert queue


class TestCompaction:
    def test_mass_cancellation_compacts_the_heap(self):
        queue = EventQueue()
        events = [queue.push(float(i), lambda: None) for i in range(300)]
        for event in events[:200]:
            queue.cancel(event)
        # More than half the entries were dead: the heap must have shrunk
        # instead of carrying 200 tombstones to the end of the run, and the
        # residual dead fraction stays below the compaction threshold.
        assert queue.heap_size < 300
        assert queue.heap_size - len(queue) <= 0.5 * queue.heap_size + 1
        assert len(queue) == 100

    def test_compaction_preserves_order_and_liveness(self):
        queue = EventQueue()
        events = [queue.push(float(i), lambda i=i: i) for i in range(200)]
        for event in events[::2]:
            queue.cancel(event)
        queue.compact()
        popped = []
        while queue:
            popped.append(queue.pop().time)
        assert popped == sorted(popped)
        assert popped == [float(i) for i in range(1, 200, 2)]

    def test_small_queues_not_compacted(self):
        queue = EventQueue()
        events = [queue.push(float(i), lambda: None) for i in range(10)]
        for event in events[:8]:
            queue.cancel(event)
        # Below the compaction floor: lazy deletion only.
        assert queue.heap_size == 10
        assert len(queue) == 2

    def test_explicit_compact_on_empty_queue(self):
        queue = EventQueue()
        queue.compact()
        assert len(queue) == 0


class TestReschedule:
    def test_reschedule_reuses_the_handle(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: "x", label="periodic")
        popped = queue.pop()
        assert popped is event
        again = queue.reschedule(event, 5.0)
        assert again is event
        assert event.time == 5.0
        assert not event.cancelled
        assert event.label == "periodic"
        assert queue.pop() is event

    def test_rescheduled_event_ordered_with_fresh_pushes(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        queue.pop()
        queue.push(3.0, lambda: None)
        queue.reschedule(event, 2.0)
        assert queue.pop().time == 2.0
        assert queue.pop().time == 3.0


class TestExtend:
    def test_extend_matches_sequential_pushes(self):
        bulk, sequential = EventQueue(), EventQueue()
        times = [5.0, 1.0, 3.0, 1.0, 2.0]
        bulk.extend((t, lambda: None) for t in times)
        for t in times:
            sequential.push(t, lambda: None)
        bulk_order = [(e.time, e.sequence) for e in iter(bulk.pop, None)]
        seq_order = [(e.time, e.sequence) for e in iter(sequential.pop, None)]
        assert bulk_order == seq_order

    def test_extend_into_populated_queue(self):
        queue = EventQueue()
        queue.push(2.5, lambda: None)
        queue.extend((float(t), lambda: None) for t in (1, 3))
        assert [queue.pop().time for _ in range(3)] == [1.0, 2.5, 3.0]

    def test_extend_rejects_negative_times(self):
        queue = EventQueue()
        with pytest.raises(ValueError):
            queue.extend([(1.0, lambda: None), (-1.0, lambda: None)])

    def test_failed_extend_leaves_queue_intact(self):
        """A mid-iterable validation failure must not half-apply the batch."""
        queue = EventQueue()
        queue.push(5.0, lambda: None)
        with pytest.raises(ValueError):
            queue.extend([(1.0, lambda: None), (-1.0, lambda: None)])
        assert len(queue) == 1
        assert queue.pop().time == 5.0
        assert queue.pop() is None
        assert len(queue) == 0

    def test_extend_empty_iterable(self):
        queue = EventQueue()
        assert queue.extend([]) == []
        assert len(queue) == 0


class TestPopBefore:
    def test_pop_before_horizon_leaves_event_queued(self):
        queue = EventQueue()
        queue.push(10.0, lambda: None)
        assert queue.pop_before(5.0) is None
        assert len(queue) == 1  # still queued, not consumed
        assert queue.pop_before(10.0).time == 10.0

    def test_pop_before_none_is_plain_pop(self):
        queue = EventQueue()
        queue.push(1.0, lambda: None)
        assert queue.pop_before(None).time == 1.0
        assert queue.pop_before(None) is None
