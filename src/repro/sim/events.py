"""Event primitives for the discrete-event engine.

An :class:`Event` couples a firing time with a callback.  Events are totally
ordered by ``(time, sequence)`` where the sequence number is assigned at
scheduling time, so two events scheduled for the same instant fire in the
order they were scheduled.  This makes simulation runs deterministic, which
the test-suite and the experiment harness rely on.

The queue is the single hottest data structure of the simulator, so it is
built for speed:

* the heap holds plain ``(time, sequence, event)`` tuples, so ``heappush`` /
  ``heappop`` compare machine floats and ints inside the C heap
  implementation instead of dispatching into a Python-level ``__lt__``;
* :class:`Event` is a ``__slots__`` handle (no dataclass machinery, no
  per-instance ``__dict__``);
* bulk scheduling (:meth:`EventQueue.extend`) re-heapifies once — O(n) —
  instead of paying n heap-pushes; long sorted traces never enter the queue
  at all (see :meth:`repro.sim.engine.Simulator.schedule_trace`);
* cancellation stays lazy, but the heap is compacted once more than half of
  its entries are dead, so workloads that cancel a lot (periodic gossip and
  keepalive processes under churn) cannot grow the heap without bound;
* :meth:`EventQueue.reschedule` re-arms a popped event handle in place, which
  lets ``call_every`` avoid allocating a fresh handle every period.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Iterable, Optional, Tuple

#: compaction is considered once this many cancelled entries have accumulated
#: (tiny heaps are never worth compacting) ...
_COMPACT_MIN_DEAD = 64
#: ... and triggered when the dead entries outnumber the live ones.
_COMPACT_DEAD_FRACTION = 0.5


class Event:
    """A single scheduled callback.

    Attributes:
        time: simulation time (seconds) at which the event fires.
        sequence: monotonically increasing tie-breaker assigned by the queue.
        callback: zero-argument callable invoked when the event fires; compared
            neither for ordering nor equality.
        cancelled: events may be cancelled in place instead of being removed
            from the heap (lazy deletion).
        label: free-form tag used in diagnostics and tests.
    """

    __slots__ = ("time", "sequence", "callback", "cancelled", "label")

    def __init__(
        self,
        time: float,
        sequence: int,
        callback: Callable[[], Any],
        cancelled: bool = False,
        label: str = "",
    ) -> None:
        self.time = time
        self.sequence = sequence
        self.callback = callback
        self.cancelled = cancelled
        self.label = label

    # Ordering mirrors the original dataclass(order=True) semantics: only
    # (time, sequence) participate; callback/cancelled/label are ignored.

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.sequence) < (other.time, other.sequence)

    def __le__(self, other: "Event") -> bool:
        return (self.time, self.sequence) <= (other.time, other.sequence)

    def __gt__(self, other: "Event") -> bool:
        return (self.time, self.sequence) > (other.time, other.sequence)

    def __ge__(self, other: "Event") -> bool:
        return (self.time, self.sequence) >= (other.time, other.sequence)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Event):
            return NotImplemented
        return (self.time, self.sequence) == (other.time, other.sequence)

    def __repr__(self) -> str:
        return (
            f"Event(time={self.time!r}, sequence={self.sequence!r}, "
            f"cancelled={self.cancelled!r}, label={self.label!r})"
        )

    def cancel(self) -> None:
        """Mark the event so the queue skips it when it reaches the front."""
        self.cancelled = True


class EventQueue:
    """Priority queue of :class:`Event` objects with lazy cancellation."""

    __slots__ = ("_heap", "_next_sequence", "_live", "_dead")

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Event]] = []
        self._next_sequence = 0
        self._live = 0
        self._dead = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    @property
    def heap_size(self) -> int:
        """Entries physically in the heap, live and cancelled (diagnostic)."""
        return len(self._heap)

    @property
    def dead_entries(self) -> int:
        """Cancelled entries still awaiting lazy removal (diagnostic)."""
        return self._dead

    def push(self, time: float, callback: Callable[[], Any], label: str = "") -> Event:
        """Schedule ``callback`` at ``time`` and return the event handle."""
        if time < 0:
            raise ValueError(f"event time must be non-negative, got {time}")
        sequence = self._next_sequence
        self._next_sequence = sequence + 1
        event = Event(time, sequence, callback, False, label)
        heapq.heappush(self._heap, (time, sequence, event))
        self._live += 1
        return event

    def extend(
        self,
        items: Iterable[Tuple[float, Callable[[], Any]]],
        label: str = "",
    ) -> list[Event]:
        """Bulk-schedule ``(time, callback)`` pairs and return their handles.

        Equivalent to calling :meth:`push` per pair (sequence numbers are
        assigned in iteration order) but re-heapifies once — O(n) instead of
        O(n log n) — which matters when replaying a whole query trace.
        """
        # Build and validate every entry before touching the heap: a failure
        # mid-iterable must not leave a half-appended, un-heapified queue.
        entries: list[tuple[float, int, Event]] = []
        sequence = self._next_sequence
        for time, callback in items:
            if time < 0:
                raise ValueError(f"event time must be non-negative, got {time}")
            entries.append((time, sequence, Event(time, sequence, callback, False, label)))
            sequence += 1
        self._next_sequence = sequence
        heap = self._heap
        heap.extend(entries)
        heapq.heapify(heap)
        self._live += len(entries)
        return [entry[2] for entry in entries]

    def reserve_sequence(self) -> int:
        """Take the next sequence number without scheduling anything (a trace
        source orders its entries against the queue with it)."""
        sequence = self._next_sequence
        self._next_sequence = sequence + 1
        return sequence

    def reschedule(self, event: Event, time: float) -> Event:
        """Re-arm a previously *popped* event handle at a new time.

        The handle keeps its callback and label but receives a fresh sequence
        number, exactly as if it had been pushed anew — without allocating a
        new :class:`Event`.  Only call this with handles that are no longer in
        the heap (i.e. after :meth:`pop` returned them); rescheduling an event
        that is still queued would fire it twice.
        """
        sequence = self._next_sequence
        self._next_sequence = sequence + 1
        event.time = time
        event.sequence = sequence
        event.cancelled = False
        heapq.heappush(self._heap, (time, sequence, event))
        self._live += 1
        return event

    def pop_before(
        self, horizon: Optional[float], sequence: Optional[int] = None
    ) -> Optional[Event]:
        """Pop the next live event, unless it fires after ``horizon``.

        Returns ``None`` when the queue is empty *or* the next live event lies
        beyond the horizon (check ``bool(queue)`` to tell the two apart).  One
        call replaces the peek+pop pair in the dispatch loop and runs once per
        fired event.  With ``sequence`` the bound is the key ``(horizon,
        sequence)``: an event *at* the horizon is only popped if it was
        scheduled before that sequence number was reserved.
        """
        heap = self._heap
        while heap:
            head = heap[0]
            if head[2].cancelled:
                heapq.heappop(heap)
                self._dead -= 1
                continue
            if horizon is not None and head[0] >= horizon:
                if head[0] > horizon or (sequence is not None and head[1] > sequence):
                    return None
            heapq.heappop(heap)
            self._live -= 1
            return head[2]
        self._live = 0
        self._dead = 0
        return None

    def pop(self) -> Optional[Event]:
        """Return the next non-cancelled event, or ``None`` if the queue is empty."""
        return self.pop_before(None)

    def peek_time(self) -> Optional[float]:
        """Return the firing time of the next live event without removing it."""
        heap = self._heap
        while heap:
            head = heap[0]
            if head[2].cancelled:
                heapq.heappop(heap)
                self._dead -= 1
                continue
            return head[0]
        self._live = 0
        self._dead = 0
        return None

    def cancel(self, event: Event) -> None:
        """Cancel a previously scheduled event (lazy deletion)."""
        if event.cancelled:
            return
        event.cancelled = True
        self._live = self._live - 1 if self._live > 0 else 0
        self._dead += 1
        if (
            self._dead >= _COMPACT_MIN_DEAD
            and self._dead > _COMPACT_DEAD_FRACTION * len(self._heap)
        ):
            self.compact()

    def compact(self) -> None:
        """Drop every cancelled entry and re-heapify.

        O(n); called automatically once cancelled entries outnumber live ones,
        so its amortised cost per cancellation is O(1).  Relative order of the
        surviving entries is untouched (the heap invariant is rebuilt from the
        same ``(time, sequence)`` keys).
        """
        self._heap = [entry for entry in self._heap if not entry[2].cancelled]
        heapq.heapify(self._heap)
        self._dead = 0
        self._live = len(self._heap)

    def clear(self) -> None:
        self._heap.clear()
        self._live = 0
        self._dead = 0
