"""Message reachability: the delivery gate every protocol interaction consults.

The paper's Section 5 resilience story (keepalive failure detection,
directory replacement, graceful fallback to the origin server) presumes an
unreliable network, yet a simulator that delivers every message
unconditionally can never exercise it.  This module provides the missing
layer: a :class:`ReachabilityModel` attached to a running
:class:`~repro.core.system.FlowerCDN` via
:meth:`~repro.core.system.FlowerCDN.attach_reachability`, consulted once per
protocol message — gossip exchanges, keepalives, directory pushes and
queries, query redirections, D-ring summary refreshes and active
replication — through the system's :class:`DeliveryGate`.

Design rules:

* **No model, no cost.**  The system's ``gate`` attribute is ``None`` while
  no model is attached, and every gate site is guarded by ``if gate is not
  None``: an ungated run is byte-identical to the pre-gate code.
* **Pure functions of time.**  Episode-based models (locality partitions,
  directory outages) answer :meth:`ReachabilityModel.allows` from the
  simulation clock alone — no scheduled events, no hidden state — so
  attaching one never perturbs the event queue or any random stream.
* **Dedicated streams.**  Probabilistic models (per-link loss) draw from
  their own named stream, so enabling them never shifts the draws of any
  other stream of the run.

Concrete models for the registered fault families live here
(:class:`LocalityPartition`, :class:`HostOutage`, :class:`LinkLoss`); the
scenario-facing factories that build and attach them are registered in
:mod:`repro.scenarios.models`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, FrozenSet, List, Optional, Tuple

if TYPE_CHECKING:
    from repro.core.config import FlowerConfig
    from repro.sim.engine import Simulator

__all__ = [
    "MESSAGE_KINDS",
    "DeliveryStats",
    "DeliveryGate",
    "ReachabilityModel",
    "LocalityPartition",
    "HostOutage",
    "LinkLoss",
]

#: every message kind the delivery gate distinguishes:
#:
#: * ``"gossip"``      — one gossip exchange between two content peers
#: * ``"keepalive"``   — content peer -> its directory peer
#: * ``"push"``        — content-list delta push to the directory
#: * ``"query"``       — a query contacting a directory peer (new-client
#:   bootstrap, serving directory, content-miss directory fallback)
#: * ``"redirect"``    — a query redirected to a candidate provider
#: * ``"dring"``       — directory peer -> neighbouring directory peer during
#:   Algorithm 3's cross-overlay hop
#: * ``"summary"``     — periodic directory summary refresh to D-ring
#:   neighbours
#: * ``"replication"`` — an actively replicated object copy
MESSAGE_KINDS = (
    "gossip",
    "keepalive",
    "push",
    "query",
    "redirect",
    "dring",
    "summary",
    "replication",
)


@dataclass
class DeliveryStats:
    """Per-run counters of the delivery gate (created on model attachment)."""

    #: messages the gate let through, by kind
    delivered: Dict[str, int] = field(default_factory=dict)
    #: messages the gate blocked, by kind
    blocked: Dict[str, int] = field(default_factory=dict)
    #: queries whose redirection retries included a blocked attempt and
    #: still ended without a provider (the retry budget ran dry)
    retries_exhausted: int = 0
    #: queries degraded to the origin server because the directory path was
    #: unreachable (not because the directory was dead)
    server_fallbacks: int = 0
    #: redirection candidates skipped while under suspicion backoff
    suspicion_skips: int = 0
    #: explicit post-heal reconciliation rounds performed
    reconciliations: int = 0

    def count_delivered(self, kind: str) -> None:
        self.delivered[kind] = self.delivered.get(kind, 0) + 1

    def count_blocked(self, kind: str) -> None:
        self.blocked[kind] = self.blocked.get(kind, 0) + 1

    @property
    def total_delivered(self) -> int:
        return sum(self.delivered.values())

    @property
    def total_blocked(self) -> int:
        return sum(self.blocked.values())

    def to_dict(self) -> Dict[str, object]:
        return {
            "delivered": dict(sorted(self.delivered.items())),
            "blocked": dict(sorted(self.blocked.items())),
            "retries_exhausted": self.retries_exhausted,
            "server_fallbacks": self.server_fallbacks,
            "suspicion_skips": self.suspicion_skips,
            "reconciliations": self.reconciliations,
        }

    def merge_from(self, other: "DeliveryStats") -> None:
        """Fold another block's gate counters into this one.

        All counters sum across blocks except ``reconciliations``: every
        block performs the same post-heal reconciliation rounds on its own
        clock, so the whole-run equivalent is the maximum, not the sum.
        """
        for kind, count in other.delivered.items():
            self.delivered[kind] = self.delivered.get(kind, 0) + count
        for kind, count in other.blocked.items():
            self.blocked[kind] = self.blocked.get(kind, 0) + count
        self.retries_exhausted += other.retries_exhausted
        self.server_fallbacks += other.server_fallbacks
        self.suspicion_skips += other.suspicion_skips
        self.reconciliations = max(self.reconciliations, other.reconciliations)


class ReachabilityModel:
    """Base delivery model: everything reachable (attachable as a no-op).

    Subclasses override :meth:`allows`; the base implementation delivers
    every message, which makes the class itself useful in tests asserting
    the gate's no-interference property.
    """

    #: whether a run under this model reports the ``resilience_*`` metric
    #: block (a model that must keep an existing golden byte-identical, e.g.
    #: the ``gossip-loss`` fault's :class:`LinkLoss`, sets this False)
    emits_metrics: bool = True

    def allows(
        self,
        kind: str,
        src_host: int,
        dst_host: int,
        src_id: Optional[str],
        dst_id: Optional[str],
        now: float,
    ) -> bool:
        """Whether a ``kind`` message from ``src_host`` reaches ``dst_host``.

        ``src_id``/``dst_id`` are the peer identifiers when known (``None``
        for a client host that has not joined an overlay yet); ``now`` is
        the simulation clock at send time.
        """
        return True

    def fault_windows(self) -> Tuple[Tuple[float, float], ...]:
        """The ``(start, end)`` episodes this model disturbs the network in.

        Used by the resilience metrics to split the hit-ratio series into
        pre-fault / in-fault / post-heal segments.  Models without a
        temporal footprint (e.g. stationary link loss) return ``()``.
        """
        return ()


class DeliveryGate:
    """What a system keeps while a model is attached: the model, the
    per-kind :class:`DeliveryStats`, the contact-suspicion backoff and the
    redirect timeout.

    The system consults it through its ``gate`` attribute and keeps it after
    detachment for end-of-run reporting (:attr:`stats`,
    :meth:`fault_windows`).  The timeout and the suspicion backoff come from
    the system's configuration; every decision reads the simulation clock.
    """

    __slots__ = (
        "model", "stats", "redirect_timeout_ms", "_clock", "_backoff_s", "_backoff_max_s",
        "_suspected_until", "_streak",
    )

    def __init__(
        self, model: ReachabilityModel, clock: "Simulator", config: "FlowerConfig"
    ) -> None:
        self.model = model
        self.stats = DeliveryStats()
        #: what a message lost in transit costs its sender before it gives up
        self.redirect_timeout_ms = config.redirect_timeout_ms
        self._clock = clock
        self._backoff_s = config.suspicion_backoff_s
        self._backoff_max_s = config.suspicion_backoff_max_s
        #: contact id -> earliest retry time, and timeouts in a row
        self._suspected_until: Dict[str, float] = {}
        self._streak: Dict[str, int] = {}

    def delivers(
        self,
        kind: str,
        src_host: int,
        dst_host: int,
        src_id: Optional[str],
        dst_id: Optional[str],
    ) -> bool:
        """Whether one ``kind`` message reaches ``dst_host`` (counted by kind)."""
        stats = self.stats
        if self.model.allows(kind, src_host, dst_host, src_id, dst_id, self._clock.now):
            stats.count_delivered(kind)
            return True
        stats.count_blocked(kind)
        return False

    def fall_back(self) -> float:
        """A query gives up on an unreachable directory path for the origin
        server: counted, and the timeout it waited returned."""
        self.stats.server_fallbacks += 1
        return self.redirect_timeout_ms

    def skips(self, contact: str) -> bool:
        """Whether ``contact`` is under suspicion backoff (a counted skip)."""
        not_before = self._suspected_until.get(contact)
        if not_before is not None and self._clock.now < not_before:
            self.stats.suspicion_skips += 1
            return True
        return False

    def suspect(self, contact: str) -> None:
        """Back off from a contact that timed out: doubling suspicion window."""
        streak = self._streak.get(contact, 0) + 1
        self._streak[contact] = streak
        backoff = min(self._backoff_s * (2 ** (streak - 1)), self._backoff_max_s)
        self._suspected_until[contact] = self._clock.now + backoff

    def clear_suspicion(self, contact: Optional[str] = None) -> None:
        """Forget the suspicion of ``contact`` (it answered), or of everyone."""
        if contact is None:
            self._suspected_until.clear()
            self._streak.clear()
        else:
            self._suspected_until.pop(contact, None)
            self._streak.pop(contact, None)

    def fault_windows(self) -> Optional[Tuple[Tuple[float, float], ...]]:
        """The episodes the ``resilience_*`` block is computed over (``None``:
        the model reports no block) — a pure function of the clock."""
        model = self.model
        return tuple(model.fault_windows()) if model.emits_metrics else None


class LocalityPartition(ReachabilityModel):
    """Locality-level network partition with start/duration episodes.

    During an episode every message crossing the boundary between a
    partitioned locality and the rest of the network is blocked;
    intra-locality traffic (and traffic wholly outside the partitioned
    localities) is unaffected.  ``asymmetric=True`` models one-way route
    failure: only messages *leaving* a partitioned locality are blocked,
    while inbound traffic still arrives.

    Episodes use half-open ``start <= now < end`` semantics, so a heal
    action scheduled exactly at ``end`` already sees the network whole.
    """

    def __init__(
        self,
        episodes: Tuple[Tuple[float, float], ...],
        localities: FrozenSet[int],
        locality_of: Callable[[int], int],
        asymmetric: bool = False,
    ) -> None:
        for start, end in episodes:
            if start < 0 or end <= start:
                raise ValueError("each episode needs 0 <= start < end")
        if not localities:
            raise ValueError("at least one locality must be partitioned")
        self._episodes = tuple(sorted(episodes))
        self._localities = frozenset(localities)
        self._locality_of = locality_of
        self._asymmetric = asymmetric

    def _active(self, now: float) -> bool:
        for start, end in self._episodes:
            if start <= now < end:
                return True
            if now < start:
                break
        return False

    def allows(self, kind, src_host, dst_host, src_id, dst_id, now) -> bool:
        if not self._active(now):
            return True
        src_in = self._locality_of(src_host) in self._localities
        dst_in = self._locality_of(dst_host) in self._localities
        if self._asymmetric:
            # One-way failure: only outbound messages are lost.
            return not (src_in and not dst_in)
        return src_in == dst_in

    def fault_windows(self) -> Tuple[Tuple[float, float], ...]:
        return self._episodes


class HostOutage(ReachabilityModel):
    """Specific hosts unreachable during per-host time windows.

    The model behind the cascading-directory-failures family: each affected
    host gets its own ``(start, end)`` outage window during which every
    message to or from it is blocked.  The hosts stay *alive* — they are
    unreachable, not failed — which is exactly the regime the graceful-
    degradation path (origin-server fallback without triggering the
    Section 5.2 replacement protocol) must survive.
    """

    def __init__(self, windows: Tuple[Tuple[int, float, float], ...]) -> None:
        by_host: Dict[int, List[Tuple[float, float]]] = {}
        for host, start, end in windows:
            if start < 0 or end <= start:
                raise ValueError("each outage window needs 0 <= start < end")
            by_host.setdefault(host, []).append((start, end))
        self._by_host = {host: tuple(sorted(spans)) for host, spans in by_host.items()}

    def _down(self, host: int, now: float) -> bool:
        spans = self._by_host.get(host)
        if spans is None:
            return False
        for start, end in spans:
            if start <= now < end:
                return True
            if now < start:
                break
        return False

    def allows(self, kind, src_host, dst_host, src_id, dst_id, now) -> bool:
        return not (self._down(src_host, now) or self._down(dst_host, now))

    def fault_windows(self) -> Tuple[Tuple[float, float], ...]:
        windows = sorted(
            span for spans in self._by_host.values() for span in spans
        )
        return tuple(windows)


class LinkLoss(ReachabilityModel):
    """Stationary per-message loss: each gated message is independently
    dropped with ``drop_probability``, across every kind (or a restricted
    tuple of kinds).  Draws come from the model's own stream, so attaching
    it never perturbs any other stream of the run.
    """

    def __init__(
        self,
        drop_probability: float,
        stream: random.Random,
        kinds: Tuple[str, ...] = (),
    ) -> None:
        if not 0.0 <= drop_probability <= 1.0:
            raise ValueError("drop_probability must be in [0, 1]")
        for kind in kinds:
            if kind not in MESSAGE_KINDS:
                raise ValueError(
                    f"unknown message kind {kind!r}; expected one of {MESSAGE_KINDS}"
                )
        self._drop_probability = drop_probability
        self._stream = stream
        self._kinds = frozenset(kinds)

    def allows(self, kind, src_host, dst_host, src_id, dst_id, now) -> bool:
        if self._kinds and kind not in self._kinds:
            return True
        return self._stream.random() >= self._drop_probability
