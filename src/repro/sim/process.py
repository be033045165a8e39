"""Periodic processes bound to simulated peers.

Gossip rounds, keepalives and age incrementing are all modelled as periodic
processes.  :class:`PeriodicProcess` is a thin object-oriented wrapper over
:meth:`repro.sim.engine.Simulator.call_every` that supports jittered starts —
the paper's peers do not gossip in lock-step, so each process can start at a
random phase within its first period.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

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

    def restart(self, period: Optional[float] = None) -> None:
        """Stop and start again, optionally with a new period."""
        self.stop()
        if period is not None:
            if period <= 0:
                raise ValueError(f"period must be positive, got {period}")
            self._period = period
        self.start()
