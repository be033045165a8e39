"""Churn and failure injection (Section 5).

The paper handles three forms of dynamicity: content-peer failures/leaves
(detected by ageing and keepalives, Section 5.1), directory failures/leaves
(repaired by the replacement protocol, Section 5.2) and locality changes
(Section 5.4).  :class:`ChurnInjector` drives all three against a running
:class:`~repro.core.system.FlowerCDN` at the rates of a :class:`ChurnProfile`
so the churn ablation benchmark and the resilience example can measure their
impact; :class:`BurstChurnInjector` fails content peers in periodic bursts
instead.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

from repro.core.system import FlowerCDN
from repro.sim.process import PeriodicInjector


@dataclass(frozen=True)
class ChurnProfile:
    """Churn rates (events per hour over the whole system).

    An event picks its victim uniformly among the eligible peers.
    """

    content_failures_per_hour: float = 0.0
    directory_failures_per_hour: float = 0.0
    locality_changes_per_hour: float = 0.0

    def __post_init__(self) -> None:
        for rate in fields(self):
            value = getattr(self, rate.name)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"{rate.name} must be a number, got {value!r}")
            if value < 0:
                raise ValueError(f"{rate.name} must be non-negative")

    @property
    def is_enabled(self) -> bool:
        return (
            self.content_failures_per_hour > 0
            or self.directory_failures_per_hour > 0
            or self.locality_changes_per_hour > 0
        )


@dataclass
class ChurnLogEntry:
    """One injected churn event (for diagnostics and assertions in tests)."""

    time: float
    kind: str
    target: str


class ChurnInjector(PeriodicInjector):
    """Injects failures, leaves and locality changes into a running system,
    waking every ``tick_period_s`` to decide how many of each happen."""

    __slots__ = ("_system", "_profile")
    name = "churn-injector"
    jitter_stream = "churn:jitter"

    def __init__(
        self, system: FlowerCDN, profile: ChurnProfile, tick_period_s: float = 60.0
    ) -> None:
        super().__init__(system.sim, tick_period_s)
        self._system = system
        self._profile = profile

    def start(self) -> None:
        """Begin injecting events (an idle profile never schedules a tick)."""
        if self._profile.is_enabled:
            super().start()

    # -- injection -----------------------------------------------------------

    def _events_this_tick(self, rate_per_hour: float) -> int:
        """Sample how many events of a given kind happen during one tick."""
        expected = rate_per_hour * self._period / 3600.0
        count = int(expected)
        remainder = expected - count
        if self._system.sim.streams.random("churn:fraction") < remainder:
            count += 1
        return count

    def _tick(self) -> None:
        sim = self._system.sim
        for _ in range(self._events_this_tick(self._profile.content_failures_per_hour)):
            victim = self._pick_content_peer()
            if victim is not None and self._system.fail_content_peer(victim):
                self.log.append(ChurnLogEntry(time=sim.now, kind="content_failure", target=victim))
        for _ in range(self._events_this_tick(self._profile.directory_failures_per_hour)):
            pair = self._pick_directory_pair()
            if pair is not None and self._system.fail_directory(*pair):
                self.log.append(
                    ChurnLogEntry(time=sim.now, kind="directory_failure", target=f"{pair}")
                )
        for _ in range(self._events_this_tick(self._profile.locality_changes_per_hour)):
            victim = self._pick_content_peer()
            if victim is None:
                continue
            new_locality = sim.streams.randint(
                "churn:locality", 0, self._system.config.num_localities - 1
            )
            moved = self._system.change_locality(victim, new_locality)
            if moved is not None:
                self.log.append(
                    ChurnLogEntry(time=sim.now, kind="locality_change", target=victim)
                )

    def _pick_content_peer(self) -> Optional[str]:
        alive = self._system.alive_content_peer_ids()
        if not alive:
            return None
        return self._system.sim.streams.choice("churn:victim", alive)

    def _pick_directory_pair(self) -> Optional[tuple[str, int]]:
        pairs = [
            (website, locality)
            for website, locality in self._system.active_directory_pairs()
            if self._system.overlay_members(website, locality)
        ]
        if not pairs:
            return None
        return self._system.sim.streams.choice("churn:dir-victim", pairs)


class BurstChurnInjector(PeriodicInjector):
    """Periodic bursts of simultaneous content-peer failures."""

    __slots__ = ("_system", "_burst_size")
    name = "burst-churn"
    jitter_stream = "churn:burst-jitter"

    def __init__(self, system: FlowerCDN, period_s: float, burst_size: int) -> None:
        super().__init__(system.sim, period_s)
        self._system = system
        self._burst_size = burst_size

    def _tick(self) -> None:
        system = self._system
        alive = system.alive_content_peer_ids()
        if not alive:
            return
        victims = system.sim.streams.sample(
            "churn:burst-victims", alive, min(self._burst_size, len(alive))
        )
        for victim in victims:
            if system.fail_content_peer(victim):
                self.log.append(
                    ChurnLogEntry(
                        time=system.sim.now, kind="burst_content_failure", target=victim
                    )
                )
