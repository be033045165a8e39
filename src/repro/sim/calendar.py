"""Calendar (bucketed) event-queue backend.

A calendar queue maps event times onto fixed-width buckets (one "day" per
bucket) and only keeps the *current* bucket sorted: future buckets accumulate
entries unsorted and are sorted once, when the clock reaches them.  For the
dense, near-uniform schedules of a paper-scale run — a Poisson query trace
plus thousands of periodic gossip/keepalive processes — this makes bulk
scheduling O(n) distribution + one small per-bucket sort, and popping an
amortised pointer increment, instead of O(log n) heap operations per event.

The backend is a drop-in replacement for :class:`repro.sim.events.EventQueue`
(same entry ordering ``(time, sequence)``, same lazy cancellation and
compaction semantics), so a run produces byte-identical results on either
backend; which one is faster depends on the schedule shape (see
``docs/performance.md``, "the per-layer ledger").  Sparse or severely
non-uniform schedules degenerate to one entry per bucket, where the tuple
heap is the better choice — hence the engine keeps the heap as its default.

Both backends share the :class:`~repro.sim.events.Event` handle type and the
keyed :meth:`pop_before` the engine merges trace sources through.
"""

from __future__ import annotations

import heapq
from bisect import insort
from typing import Any, Callable, Iterable, Optional, Sequence, Tuple

from repro.sim.events import (
    _COMPACT_MIN_DEAD,
    _COMPACT_DEAD_FRACTION,
    Event,
)

#: default bucket width (seconds) before the first bulk extend tunes it
_DEFAULT_BUCKET_WIDTH = 1.0
#: target mean number of events per bucket after tuning
_TARGET_BUCKET_OCCUPANCY = 4.0
#: bucket widths are clamped to this range (seconds)
_MIN_BUCKET_WIDTH = 1e-6
_MAX_BUCKET_WIDTH = 1e6


class CalendarEventQueue:
    """Bucketed priority queue of :class:`Event` objects with lazy cancellation."""

    __slots__ = (
        "_width",
        "_width_tuned",
        "_buckets",
        "_bucket_heap",
        "_current",
        "_current_index",
        "_pos",
        "_next_sequence",
        "_live",
        "_dead",
        "_entries",
    )

    def __init__(self, bucket_width: Optional[float] = None) -> None:
        if bucket_width is not None and bucket_width <= 0:
            raise ValueError(f"bucket_width must be positive, got {bucket_width}")
        self._width = bucket_width if bucket_width is not None else _DEFAULT_BUCKET_WIDTH
        #: False until the width has been fixed (explicitly or by the first
        #: sufficiently large bulk extend)
        self._width_tuned = bucket_width is not None
        #: future buckets: bucket index -> unsorted list of (time, seq, event)
        self._buckets: dict[int, list] = {}
        #: min-heap of the indices present in _buckets
        self._bucket_heap: list[int] = []
        #: the sorted head bucket and the pop cursor into it
        self._current: Optional[list] = None
        self._current_index = 0
        self._pos = 0
        self._next_sequence = 0
        self._live = 0
        self._dead = 0
        #: physical entries across all buckets (live + cancelled) — kept as a
        #: counter so the compaction predicate in cancel() stays O(1)
        self._entries = 0

    # -- sizing ------------------------------------------------------------

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    @property
    def heap_size(self) -> int:
        """Entries physically stored, live and cancelled (diagnostic)."""
        return self._entries

    # -- internal plumbing -------------------------------------------------

    def _insert(self, entry: tuple) -> None:
        index = int(entry[0] / self._width)
        if self._current is not None:
            if index < self._current_index:
                # The entry precedes the already-sorted head bucket (possible
                # when the clock lags behind the queue head): demote the head
                # back to an ordinary future bucket and fall through.
                self._buckets[self._current_index] = self._current[self._pos :]
                heapq.heappush(self._bucket_heap, self._current_index)
                self._current = None
            elif index == self._current_index:
                # Sorted-insert into the not-yet-popped tail of the head bucket.
                insort(self._current, entry, lo=self._pos)
                return
        bucket = self._buckets.get(index)
        if bucket is None:
            self._buckets[index] = [entry]
            heapq.heappush(self._bucket_heap, index)
        else:
            bucket.append(entry)

    def _advance(self) -> bool:
        """Make the head bucket available; False when the queue is empty."""
        while self._current is None or self._pos >= len(self._current):
            if not self._bucket_heap:
                self._current = None
                return False
            index = heapq.heappop(self._bucket_heap)
            bucket = self._buckets.pop(index, None)
            if not bucket:
                continue
            bucket.sort()  # (time, seq, event) tuples: one C-level sort per bucket
            self._current = bucket
            self._current_index = index
            self._pos = 0
        return True

    def _maybe_tune_width(self, times: Sequence[float]) -> None:
        """Fix the bucket width from the first large bulk schedule.

        Aims at :data:`_TARGET_BUCKET_OCCUPANCY` events per bucket over the
        batch's time span — the classic calendar-queue operating point.  Only
        runs while the queue is still (nearly) empty so no re-bucketing of
        existing entries is needed.
        """
        if self._width_tuned or len(times) < 64 or self.heap_size > len(times) // 4:
            return
        span = max(times) - min(times)
        if span <= 0:
            return
        width = span / len(times) * _TARGET_BUCKET_OCCUPANCY
        width = min(_MAX_BUCKET_WIDTH, max(_MIN_BUCKET_WIDTH, width))
        existing = []
        if self._current is not None:
            existing.extend(self._current[self._pos :])
            self._current = None
        for bucket in self._buckets.values():
            existing.extend(bucket)
        self._buckets.clear()
        self._bucket_heap.clear()
        self._width = width
        self._width_tuned = True
        for entry in existing:
            self._insert(entry)

    # -- scheduling --------------------------------------------------------

    def push(self, time: float, callback: Callable[[], Any], label: str = "") -> Event:
        """Schedule ``callback`` at ``time`` and return the event handle."""
        if time < 0:
            raise ValueError(f"event time must be non-negative, got {time}")
        sequence = self._next_sequence
        self._next_sequence = sequence + 1
        event = Event(time, sequence, callback, False, label)
        self._insert((time, sequence, event))
        self._live += 1
        self._entries += 1
        return event

    def extend(
        self,
        items: Iterable[Tuple[float, Callable[[], Any]]],
        label: str = "",
    ) -> list[Event]:
        """Bulk-schedule ``(time, callback)`` pairs and return their handles."""
        entries: list[tuple] = []
        sequence = self._next_sequence
        for time, callback in items:
            if time < 0:
                raise ValueError(f"event time must be non-negative, got {time}")
            entries.append(
                (time, sequence, Event(time, sequence, callback, False, label))
            )
            sequence += 1
        self._next_sequence = sequence
        self._maybe_tune_width([entry[0] for entry in entries])
        for entry in entries:
            self._insert(entry)
        self._live += len(entries)
        self._entries += len(entries)
        return [entry[2] for entry in entries]

    def reserve_sequence(self) -> int:
        """Take the next sequence number without scheduling anything."""
        sequence = self._next_sequence
        self._next_sequence = sequence + 1
        return sequence

    def reschedule(self, event: Event, time: float) -> Event:
        """Re-arm a previously popped handle at a new time (fresh sequence)."""
        sequence = self._next_sequence
        self._next_sequence = sequence + 1
        event.time = time
        event.sequence = sequence
        event.cancelled = False
        self._insert((time, sequence, event))
        self._live += 1
        self._entries += 1
        return event

    # -- consumption -------------------------------------------------------

    def pop_before(
        self, horizon: Optional[float], sequence: Optional[int] = None
    ) -> Optional[Event]:
        """Pop the next live event, unless it fires after ``(horizon, sequence)``."""
        while True:
            if (self._current is None or self._pos >= len(self._current)) and not self._advance():
                self._live = 0
                self._dead = 0
                self._entries = 0
                return None
            entry = self._current[self._pos]
            event = entry[2]
            if event.cancelled:
                self._pos += 1
                self._dead -= 1
                self._entries -= 1
                continue
            if horizon is not None and entry[0] >= horizon:
                if entry[0] > horizon or (sequence is not None and entry[1] > sequence):
                    return None
            self._pos += 1
            self._live -= 1
            self._entries -= 1
            return event

    def pop(self) -> Optional[Event]:
        """Return the next non-cancelled event, or ``None`` if the queue is empty."""
        return self.pop_before(None)

    def peek_time(self) -> Optional[float]:
        """Return the firing time of the next live event without removing it."""
        while True:
            if (self._current is None or self._pos >= len(self._current)) and not self._advance():
                self._live = 0
                self._dead = 0
                self._entries = 0
                return None
            entry = self._current[self._pos]
            if entry[2].cancelled:
                self._pos += 1
                self._dead -= 1
                self._entries -= 1
                continue
            return entry[0]

    # -- cancellation ------------------------------------------------------

    def cancel(self, event: Event) -> None:
        """Cancel a previously scheduled event (lazy deletion)."""
        if event.cancelled:
            return
        event.cancelled = True
        self._live = self._live - 1 if self._live > 0 else 0
        self._dead += 1
        if (
            self._dead >= _COMPACT_MIN_DEAD
            and self._dead > _COMPACT_DEAD_FRACTION * self.heap_size
        ):
            self.compact()

    def compact(self) -> None:
        """Drop every cancelled entry; relative order of survivors is untouched."""
        survivors: list[tuple] = []
        if self._current is not None:
            survivors.extend(
                entry for entry in self._current[self._pos :] if not entry[2].cancelled
            )
            self._current = None
        for bucket in self._buckets.values():
            survivors.extend(entry for entry in bucket if not entry[2].cancelled)
        self._buckets.clear()
        self._bucket_heap.clear()
        for entry in survivors:
            self._insert(entry)
        self._dead = 0
        self._live = len(survivors)
        self._entries = len(survivors)

    def clear(self) -> None:
        self._buckets.clear()
        self._bucket_heap.clear()
        self._current = None
        self._pos = 0
        self._live = 0
        self._dead = 0
        self._entries = 0
