"""The discrete-event simulator.

The :class:`Simulator` owns the virtual clock, the event queue and the random
streams.  Components schedule callbacks either at absolute times
(:meth:`Simulator.at`) or after a delay (:meth:`Simulator.after`), and the
main loop pops events in time order until a stop condition is reached.

The engine deliberately mirrors the PeerSim event-driven model used by the
paper: there is no bandwidth or CPU contention model, only per-message
latencies supplied by the network layer.
"""

from __future__ import annotations

import sys
from array import array
from typing import Any, Callable, Iterable, List, Optional, Tuple

from repro.sim.calendar import CalendarEventQueue
from repro.sim.events import Event, EventQueue
from repro.sim.rng import RandomStreams

#: queue backends selectable per run
QUEUE_BACKENDS = ("heap", "calendar")
#: trace entries per loader event: a merged trace source has no loader, so
#: ``num_queries // TRACE_CHUNK_SIZE`` (how benchmarks/e2e counts them) is 0
TRACE_CHUNK_SIZE = sys.maxsize


class SimulationError(RuntimeError):
    """Raised for invalid scheduling requests or a corrupted simulation state."""


class _TraceSource:
    """A sorted time column the dispatch loop merges with the queue."""

    __slots__ = ("times", "size", "cursor", "time", "callback", "sequence", "label")

    def __init__(
        self, times: Any, callback: Callable[[], Any], sequence: int, label: str
    ) -> None:
        self.times = times
        self.size = len(times)
        self.cursor = 0
        #: the next entry's firing time
        self.time: float = times[0]
        self.callback = callback
        #: reserved at registration; orders the entries against queue events
        self.sequence = sequence
        self.label = label

    def key(self) -> Tuple[float, int]:
        return (self.time, self.sequence)


def _unsorted(source: _TraceSource, following: float, time: float) -> SimulationError:
    return SimulationError(
        f"trace {source.label!r} is not sorted: {following:.6f} follows {time:.6f}"
    )


class Simulator:
    """Deterministic discrete-event simulator.

    Args:
        seed: master seed for all random streams.
        end_time: optional absolute time after which :meth:`run` stops even if
            events remain; events scheduled past ``end_time`` are not fired.
        queue_backend: ``"heap"`` (tuple-heap queue, the default — best for
            sparse or irregular schedules) or ``"calendar"`` (bucketed
            calendar queue — best for dense, near-uniform schedules such as
            paper-scale trace replay).  Both produce byte-identical runs;
            ``docs/performance.md`` ("the per-layer ledger") times the two.
    """

    __slots__ = (
        "_queue",
        "_queue_backend",
        "_now",
        "_end_time",
        "_stopped",
        "_events_fired",
        "_sources",
        "_head",
        "streams",
    )

    def __init__(
        self,
        seed: int = 42,
        end_time: Optional[float] = None,
        queue_backend: str = "heap",
    ) -> None:
        if queue_backend not in QUEUE_BACKENDS:
            raise SimulationError(
                f"unknown queue backend {queue_backend!r}; expected one of {QUEUE_BACKENDS}"
            )
        self._queue = EventQueue() if queue_backend == "heap" else CalendarEventQueue()
        self._queue_backend = queue_backend
        self._now = 0.0
        self._end_time = end_time
        self._stopped = False
        self._events_fired = 0
        #: live trace sources and the one whose next entry fires first
        self._sources: List[_TraceSource] = []
        self._head: Optional[_TraceSource] = None
        self.streams = RandomStreams(seed)

    @property
    def queue_backend(self) -> str:
        return self._queue_backend

    # -- clock -------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def end_time(self) -> Optional[float]:
        return self._end_time

    @property
    def events_fired(self) -> int:
        """Number of events executed so far (diagnostic)."""
        return self._events_fired

    @property
    def pending_events(self) -> int:
        """Queued events plus the entries trace sources have yet to fire."""
        return len(self._queue) + sum(
            source.size - source.cursor for source in self._sources
        )

    # -- scheduling --------------------------------------------------------

    def at(self, time: float, callback: Callable[[], Any], label: str = "") -> Event:
        """Schedule ``callback`` at absolute simulation time ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at {time:.6f}, clock is already at {self._now:.6f}"
            )
        return self._queue.push(time, callback, label=label)

    def after(self, delay: float, callback: Callable[[], Any], label: str = "") -> Event:
        """Schedule ``callback`` ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"delay must be non-negative, got {delay}")
        return self._queue.push(self._now + delay, callback, label=label)

    def schedule_batch(
        self,
        items: Iterable[Tuple[float, Callable[[], Any]]],
        label: str = "",
    ) -> List[Event]:
        """Schedule many ``(time, callback)`` pairs in one bulk operation.

        Semantically identical to calling :meth:`at` per pair, but the queue
        is re-heapified once, which is substantially cheaper for large traces.
        """
        now = self._now
        pairs = []
        for time, callback in items:
            if time < now:
                raise SimulationError(
                    f"cannot schedule event at {time:.6f}, clock is already at {now:.6f}"
                )
            pairs.append((time, callback))
        return self._queue.extend(pairs, label=label)

    def schedule_trace(
        self,
        times: Iterable[float],
        callback: Callable[[], Any],
        label: str = "trace",
    ) -> None:
        """Register a long, time-ordered series of calls to one ``callback``.

        ``times`` must be non-decreasing (an ``array`` or list is used as is).
        The column never enters the queue: it becomes a *trace source* that
        :meth:`run` and :meth:`step` merge with the queue, so a trace costs no
        handle and no heap entry however long it is.  Entries fire exactly
        where :meth:`schedule_batch` of the same times would have put them:
        at equal times a queue event fires first if it was scheduled before
        this call, and after the trace entry otherwise.

        ``callback`` is invoked once per timestamp with no arguments; callers
        that need per-event payloads close over their own cursor (the entries
        fire in exactly the order of ``times``).
        """
        if not isinstance(times, (array, list, tuple)):
            times = array("d", times)
        if not len(times):
            return
        if times[0] < self._now:
            raise SimulationError(
                f"trace time {times[0]:.6f} precedes the clock ({self._now:.6f})"
            )
        source = _TraceSource(times, callback, self._queue.reserve_sequence(), label)
        self._sources.append(source)
        self._head = min(self._sources, key=_TraceSource.key)

    def _fire_trace(self, source: _TraceSource) -> None:
        """Fire the head source's next entry and move its cursor on."""
        time = source.time
        self._now = time
        self._events_fired += 1
        cursor = source.cursor + 1
        source.cursor = cursor
        if cursor < source.size:
            following = source.times[cursor]
            if following < time:
                raise _unsorted(source, following, time)
            source.time = following
            if len(self._sources) > 1:
                self._head = min(self._sources, key=_TraceSource.key)
        else:
            self._sources.remove(source)
            self._head = min(self._sources, key=_TraceSource.key, default=None)
        source.callback()

    def cancel(self, event: Event) -> None:
        self._queue.cancel(event)

    def _reschedule(self, event: Event, time: float) -> Event:
        """Re-arm a just-fired event handle (fast path for ``call_every``).

        Skips the past-scheduling validation of :meth:`at` — callers guarantee
        ``time >= now`` — and reuses the popped handle instead of allocating.
        """
        return self._queue.reschedule(event, time)

    # -- execution ---------------------------------------------------------

    def step(self) -> bool:
        """Execute the next event.  Returns ``False`` when nothing remains.

        An event scheduled past ``end_time`` is *peeked*, never consumed: the
        clock advances to the horizon and the event stays in the queue (it
        would otherwise be silently discarded while remaining counted as
        pending nowhere).
        """
        source = self._head
        end = self._end_time
        if source is not None and (end is None or source.time <= end):
            event = self._queue.pop_before(source.time, source.sequence)
            if event is None:
                self._fire_trace(source)
                return True
        else:
            next_time = self._queue.peek_time()
            if next_time is None or (end is not None and next_time > end):
                if next_time is not None or source is not None:
                    # Past the horizon: advance the clock to the horizon and
                    # stop, leaving the event (or trace entry) in place.
                    self._now = end
                return False
            event = self._queue.pop()
        if event.time < self._now:
            raise SimulationError("event queue returned an event in the past")
        self._now = event.time
        self._events_fired += 1
        event.callback()
        return True

    def run(self, until: Optional[float] = None) -> float:
        """Run until nothing remains, ``until`` is reached, or :meth:`stop` is called.

        Returns the simulation time at which the run ended.
        """
        if until is not None:
            if until < self._now:
                raise SimulationError(
                    f"cannot run until {until:.6f}, clock is already at {self._now:.6f}"
                )
            horizon = until if self._end_time is None else min(until, self._end_time)
        else:
            horizon = self._end_time

        self._stopped = False
        # The dispatch loop is the single hottest loop of the simulator: bind
        # the queue method once and skip the per-event safety checks `step()`
        # performs for external callers (the queue already guarantees time
        # order, and pop_before has filtered the horizon).
        pop_before = self._queue.pop_before
        fire_trace = self._fire_trace
        sources = self._sources
        while not self._stopped:
            # Re-read per event: a callback may register another source.
            source = self._head
            if source is None or (horizon is not None and source.time > horizon):
                event = pop_before(horizon)
                if event is None:
                    break
            else:
                time = source.time
                event = pop_before(time, source.sequence)
                if event is None:
                    if len(sources) > 1:
                        fire_trace(source)
                        continue
                    # The lone source's entry, fired here: `_fire_trace` with
                    # no other source to pick the next head from.
                    self._now = time
                    self._events_fired += 1
                    cursor = source.cursor + 1
                    source.cursor = cursor
                    if cursor < source.size:
                        following = source.times[cursor]
                        if following < time:
                            raise _unsorted(source, following, time)
                        source.time = following
                    else:
                        sources.clear()
                        self._head = None
                    source.callback()
                    continue
            self._now = event.time
            # Updated per event (not batched into a local) so callbacks
            # reading `events_fired` mid-run observe the live count.
            self._events_fired += 1
            event.callback()
        if horizon is not None and self._now < horizon and not self._stopped:
            # Nothing left before the horizon: advance the clock so callers
            # observing `now` see the full requested duration.
            self._now = horizon
        return self._now

    def stop(self) -> None:
        """Request that :meth:`run` return after the current event."""
        self._stopped = True

    def discard_pending(self) -> None:
        """Drop every queued event and trace entry (the end of a run).

        Pending callbacks are what ties a finished simulator to the systems
        it drove; without them both are freed by reference counting.
        """
        self._queue.clear()
        self._sources.clear()
        self._head = None

    # -- helpers -----------------------------------------------------------

    def call_every(
        self,
        period: float,
        callback: Callable[[], Any],
        start: Optional[float] = None,
        label: str = "",
    ) -> "PeriodicHandle":
        """Schedule ``callback`` every ``period`` seconds starting at ``start``.

        Returns a handle whose :meth:`PeriodicHandle.cancel` stops the series.
        """
        if period <= 0:
            raise SimulationError(f"period must be positive, got {period}")
        handle = PeriodicHandle(self, period, callback, label)
        first = self._now + period if start is None else start
        handle.schedule(first)
        return handle


class PeriodicHandle:
    """Handle for a repeating callback created by :meth:`Simulator.call_every`."""

    __slots__ = ("_sim", "_period", "_callback", "_label", "_event", "_cancelled", "fired")

    def __init__(
        self, sim: Simulator, period: float, callback: Callable[[], Any], label: str = ""
    ) -> None:
        self._sim = sim
        self._period = period
        self._callback = callback
        self._label = label
        self._event: Optional[Event] = None
        self._cancelled = False
        self.fired = 0

    @property
    def period(self) -> float:
        return self._period

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def schedule(self, time: float) -> None:
        if self._cancelled:
            return
        self._event = self._sim.at(time, self._fire, label=self._label)

    def _fire(self) -> None:
        if self._cancelled:
            return
        self.fired += 1
        self._callback()
        if not self._cancelled:
            # Fast path: the event that invoked us was just popped, so its
            # handle is free to be re-armed in place for the next period.
            event = self._event
            if event is not None and not event.cancelled:
                self._event = self._sim._reschedule(event, self._sim.now + self._period)
            else:
                self.schedule(self._sim.now + self._period)

    def cancel(self) -> None:
        self._cancelled = True
        if self._event is not None:
            self._sim.cancel(self._event)
            self._event = None
