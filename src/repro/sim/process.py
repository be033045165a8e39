"""Periodic processes bound to simulated peers.

Gossip rounds, keepalives and age incrementing are all modelled as periodic
processes.  :class:`PeriodicProcess` is a thin object-oriented wrapper over
:meth:`repro.sim.engine.Simulator.call_every` that supports jittered starts —
the paper's peers do not gossip in lock-step, so each process can start at a
random phase within its first period.  :class:`PeriodicInjector` is the shape
of everything injected into a run on such a process (churn, failure bursts,
replication rounds).
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from repro.sim.engine import PeriodicHandle, Simulator


class PeriodicProcess:
    """A named periodic activity that can be started, stopped and restarted."""

    __slots__ = ("_sim", "_period", "_callback", "_name", "_jitter_stream", "_handle")

    def __init__(
        self,
        sim: Simulator,
        period: float,
        callback: Callable[[], Any],
        name: str = "",
        jitter_stream: Optional[str] = None,
    ) -> None:
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        self._sim = sim
        self._period = period
        self._callback = callback
        self._name = name
        self._jitter_stream = jitter_stream
        self._handle: Optional[PeriodicHandle] = None

    @property
    def name(self) -> str:
        return self._name

    @property
    def period(self) -> float:
        return self._period

    @property
    def running(self) -> bool:
        return self._handle is not None and not self._handle.cancelled

    @property
    def fired(self) -> int:
        return 0 if self._handle is None else self._handle.fired

    def start(self) -> None:
        """Start the process; the first firing is phase-jittered if configured."""
        if self.running:
            return
        if self._jitter_stream is not None:
            phase = self._sim.streams.one_shot_uniform(self._jitter_stream, 0.0, self._period)
        else:
            phase = self._period
        self._handle = self._sim.call_every(
            self._period, self._callback, start=self._sim.now + phase, label=self._name
        )

    def stop(self) -> None:
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None


class PeriodicInjector:
    """A start/stop handle that runs ``_tick`` every ``period`` seconds on a
    jittered :class:`PeriodicProcess` and keeps a ``log`` of what it injected.

    A subclass names its process (the event label) and jitter stream and
    writes only its tick body.
    """

    __slots__ = ("_sim", "_period", "_process", "log")

    #: the event label of every tick
    name = ""
    #: the stream the first tick's phase is drawn from
    jitter_stream = ""

    def __init__(self, sim: Simulator, period: float) -> None:
        self._sim = sim
        self._period = period
        self._process: Optional[PeriodicProcess] = None
        self.log: List[Any] = []

    @property
    def events_injected(self) -> int:
        return len(self.log)

    def start(self) -> None:
        """Begin ticking (a non-positive period is refused here, by the process)."""
        # The process holds the injector only while it runs: once stopped the
        # two are no cycle, so the system it drove is freed by reference
        # counting after the run.
        if self._process is None:
            self._process = PeriodicProcess(
                self._sim, self._period, self._tick, self.name, self.jitter_stream
            )
            self._process.start()

    def stop(self) -> None:
        if self._process is not None:
            self._process.stop()
            self._process = None

    def _tick(self) -> None:
        raise NotImplementedError
