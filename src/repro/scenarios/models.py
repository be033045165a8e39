"""Pluggable churn and fault models for scenario specs.

A :class:`~repro.scenarios.spec.ScenarioSpec` names its dynamicity as
declarative values: a **churn model** (sustained, rate-driven background
dynamics — the Section 5 regime) and a **fault model** (discrete, scheduled
disturbance events such as a correlated locality outage).  Both are resolved
through registries, entry-point style like the simulator's
``KNOWN_QUEUE_BACKENDS``: a model is registered under a name, a spec refers
to it with a :class:`ModelRef` (name + frozen parameters), and the
:class:`~repro.session.Session` builds and attaches the model's injector to
the live system at run time.

Model protocol
--------------

A model class is constructed from the ``ModelRef`` parameters and exposes::

    def attach(self, system, spec) -> injector-or-None

where the returned injector has ``start()`` / ``stop()`` (and, by
convention, a ``log`` of :class:`~repro.core.churn.ChurnLogEntry` records).
Returning ``None`` means "this model injects nothing for this spec" — the
run then carries zero scheduling or random-stream overhead, which is what
keeps pre-program goldens byte-identical.

A model may also define ``website_separable(self, spec) -> bool``: ``True``
promises that attaching it to each website's flower on its own (one *block*
of :mod:`repro.core.sharding` at a time) reproduces the undivided run — no
draw from a stream shared across websites, no victim picked from a global
list.  A model without the method keeps the run one whole-catalogue block.

Registering a custom model (e.g. from a test or a plugin)::

    from repro.scenarios.models import register_fault_model

    @register_fault_model("my-outage")
    class MyOutage:
        def __init__(self, at_s=600.0):
            self.at_s = at_s
        def attach(self, system: "FlowerCDN", spec: "ScenarioSpec") -> Optional[Injector]:
            ...
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Protocol, Tuple

if TYPE_CHECKING:
    from repro.core.system import FlowerCDN
    from repro.scenarios.spec import ScenarioSpec

from repro.core.churn import ChurnInjector, ChurnLogEntry
from repro.network.reachability import (
    MESSAGE_KINDS,
    HostOutage,
    LinkLoss,
    LocalityPartition,
    ReachabilityModel,
)
from repro.sim.process import PeriodicProcess

class Injector(Protocol):
    """What ``attach`` returns when a model has work to do: a start/stop
    handle the session drives over the run's lifetime."""

    def start(self) -> None: ...

    def stop(self) -> None: ...


#: a model factory as stored in the registries: called with the ModelRef's
#: keyword parameters, returns the model object exposing ``attach``.
ModelFactory = Callable[..., object]


#: default model names (the behaviour of pre-registry specs)
DEFAULT_CHURN_MODEL = "poisson"
DEFAULT_FAULT_MODEL = "none"


@dataclass(frozen=True)
class ModelRef:
    """A declarative reference to a registered model: name + frozen params.

    Parameters are stored as a sorted tuple of ``(key, value)`` pairs so the
    reference stays hashable inside frozen scenario specs; use
    :meth:`ModelRef.of` to build one from keyword arguments.
    """

    name: str
    params: Tuple[Tuple[str, object], ...] = ()

    @classmethod
    def of(cls, name: str, **params: object) -> "ModelRef":
        return cls(name=name, params=tuple(sorted(params.items())))

    @property
    def kwargs(self) -> Dict[str, object]:
        return dict(self.params)

    def to_dict(self) -> Dict[str, object]:
        return {"name": self.name, "params": self.kwargs}


# -- registries ---------------------------------------------------------------

_CHURN_MODELS: Dict[str, ModelFactory] = {}
_FAULT_MODELS: Dict[str, ModelFactory] = {}
#: a registered factory's signature, taken when ``_build`` first needs it
_SIGNATURES: Dict[object, inspect.Signature] = {}


def register_churn_model(
    name: str, factory: Optional[ModelFactory] = None, *, overwrite: bool = False
) -> ModelFactory:
    """Register a churn-model factory (usable as a decorator)."""
    return _register(_CHURN_MODELS, "churn", name, factory, overwrite)


def register_fault_model(
    name: str, factory: Optional[ModelFactory] = None, *, overwrite: bool = False
) -> ModelFactory:
    """Register a fault-model factory (usable as a decorator)."""
    return _register(_FAULT_MODELS, "fault", name, factory, overwrite)


def _register(
    registry: Dict[str, ModelFactory],
    kind: str,
    name: str,
    factory: Optional[ModelFactory],
    overwrite: bool,
) -> ModelFactory:
    def add(target: Callable) -> Callable:
        if name in registry and not overwrite:
            raise ValueError(f"{kind} model {name!r} is already registered")
        _SIGNATURES.pop(registry.get(name), None)
        registry[name] = target
        return target

    return add if factory is None else add(factory)


def unregister_churn_model(name: str) -> None:
    _SIGNATURES.pop(_CHURN_MODELS.pop(name, None), None)


def unregister_fault_model(name: str) -> None:
    _SIGNATURES.pop(_FAULT_MODELS.pop(name, None), None)


def churn_model_names() -> List[str]:
    return sorted(_CHURN_MODELS)


def fault_model_names() -> List[str]:
    return sorted(_FAULT_MODELS)


def churn_model_factories() -> Dict[str, ModelFactory]:
    """Registered churn-model factories by name (for discovery/CLI listings)."""
    return dict(sorted(_CHURN_MODELS.items()))


def fault_model_factories() -> Dict[str, ModelFactory]:
    """Registered fault-model factories by name (for discovery/CLI listings)."""
    return dict(sorted(_FAULT_MODELS.items()))


def build_churn_model(ref: ModelRef) -> object:
    return _build(_CHURN_MODELS, "churn", ref)


def build_fault_model(ref: ModelRef) -> object:
    return _build(_FAULT_MODELS, "fault", ref)


def _build(registry: Dict[str, ModelFactory], kind: str, ref: ModelRef) -> object:
    try:
        factory = registry[ref.name]
    except KeyError:
        known = ", ".join(sorted(registry))
        raise ValueError(
            f"unknown {kind} model {ref.name!r}; registered models: {known}"
        ) from None
    # Reject mismatched parameters against the factory signature *before*
    # calling it, so a TypeError raised inside a (possibly third-party)
    # constructor surfaces as the genuine bug it is instead of being
    # misreported as a ModelRef-argument mistake.
    try:
        signature = _SIGNATURES.get(factory)
        if signature is None:
            signature = _SIGNATURES[factory] = inspect.signature(factory)
        signature.bind(**ref.kwargs)
    except TypeError as error:
        raise ValueError(
            f"invalid parameters for {kind} model {ref.name!r}: {error}"
        ) from None
    return factory(**ref.kwargs)


# -- built-in churn models ----------------------------------------------------


@register_churn_model("none")
class NoChurn:
    """Churn disabled regardless of the spec's churn profile."""

    def attach(self, system: "FlowerCDN", spec: "ScenarioSpec") -> Optional[Injector]:
        return None

    def website_separable(self, spec: "ScenarioSpec") -> bool:
        return True


@register_churn_model("poisson")
class PoissonChurn:
    """The Section 5 background regime: the spec's :class:`ChurnProfile`
    rates drive the tick-based :class:`~repro.core.churn.ChurnInjector`.

    This is the default model and reproduces the pre-registry behaviour
    exactly; ``tick_period_s`` optionally overrides the injector's wake-up
    period.
    """

    def __init__(self, tick_period_s: Optional[float] = None) -> None:
        if tick_period_s is not None and tick_period_s <= 0:
            raise ValueError("tick_period_s must be positive or None")
        self.tick_period_s = tick_period_s

    def attach(self, system: "FlowerCDN", spec: "ScenarioSpec") -> Optional[Injector]:
        config = spec.churn.to_config()
        if config is None:
            return None
        if self.tick_period_s is not None:
            config = replace(config, tick_period_s=self.tick_period_s)
        return ChurnInjector(system, config)

    def website_separable(self, spec: "ScenarioSpec") -> bool:
        return not spec.churn.is_enabled  # an idle profile attaches nothing


class BurstChurnInjector:
    """Periodic bursts of simultaneous content-peer failures."""

    def __init__(self, system: "FlowerCDN", period_s: float, burst_size: int) -> None:
        self._system = system
        self._period_s = period_s
        self._burst_size = burst_size
        self._process: Optional[PeriodicProcess] = None
        self.log: List[ChurnLogEntry] = []

    def start(self) -> None:
        if self._process is not None:
            return
        self._process = PeriodicProcess(
            self._system.sim,
            self._period_s,
            self._tick,
            name="burst-churn",
            jitter_stream="churn:burst-jitter",
        )
        self._process.start()

    def stop(self) -> None:
        if self._process is not None:
            self._process.stop()
            self._process = None

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


@register_churn_model("burst")
class BurstChurn:
    """Content peers fail in periodic correlated bursts instead of a
    smoothly-thinned Poisson stream — the adversarial counterpart of
    ``"poisson"`` (same mechanisms under test, bunchier arrivals)."""

    def __init__(self, period_s: float = 1800.0, burst_size: int = 5) -> None:
        if period_s <= 0:
            raise ValueError("period_s must be positive")
        if burst_size <= 0:
            raise ValueError("burst_size must be positive")
        self.period_s = period_s
        self.burst_size = burst_size

    def attach(self, system: "FlowerCDN", spec: "ScenarioSpec") -> Optional[Injector]:
        return BurstChurnInjector(system, self.period_s, self.burst_size)


# -- built-in fault models ----------------------------------------------------


@register_fault_model("none")
class NoFaults:
    """No scheduled disturbance events (the default)."""

    def attach(self, system: "FlowerCDN", spec: "ScenarioSpec") -> Optional[Injector]:
        return None

    def website_separable(self, spec: "ScenarioSpec") -> bool:
        return True


@dataclass
class ScheduledFaultInjector:
    """Fires one callback at an absolute simulation time (optionally repeating)."""

    system: object
    at_s: float
    fire: Callable[[], None]
    repeat_every_s: Optional[float] = None
    _events: list = field(default_factory=list)
    log: List[ChurnLogEntry] = field(default_factory=list)

    def start(self) -> None:
        sim = self.system.sim
        if self.repeat_every_s is None:
            self._events.append(sim.at(self.at_s, self.fire, label="fault"))
            return
        # Repeat until the run's horizon: the simulator's end_time when set,
        # otherwise the configured run duration (harnesses that drive
        # `sim.run(until=...)` without an end_time must not silently lose
        # every repeat occurrence).
        horizon = sim.end_time
        if horizon is None:
            horizon = self.system.config.simulation_duration_s
        time = self.at_s
        while time <= horizon:
            self._events.append(sim.at(time, self.fire, label="fault"))
            time += self.repeat_every_s

    def stop(self) -> None:
        for event in self._events:
            if not event.cancelled:
                self.system.sim.cancel(event)
        self._events.clear()


@register_fault_model("correlated-locality")
class CorrelatedLocalityFaults:
    """A correlated locality outage: at ``at_fraction`` of the run, a
    ``fraction`` of the alive content peers of one locality fail *at the same
    instant*, together (optionally) with every directory peer serving that
    locality — the failure pattern of a regional network partition or power
    event, which independent per-peer churn can never produce.
    """

    def __init__(
        self,
        at_fraction: float = 0.5,
        locality: int = 0,
        fraction: float = 0.5,
        include_directories: bool = True,
        repeat_every_s: Optional[float] = None,
    ) -> None:
        if not 0.0 < at_fraction < 1.0:
            raise ValueError("at_fraction must be in (0, 1)")
        if locality < 0:
            raise ValueError("locality must be non-negative")
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        if repeat_every_s is not None and repeat_every_s <= 0:
            raise ValueError("repeat_every_s must be positive or None")
        self.at_fraction = at_fraction
        self.locality = locality
        self.fraction = fraction
        self.include_directories = include_directories
        self.repeat_every_s = repeat_every_s

    def attach(self, system: "FlowerCDN", spec: "ScenarioSpec") -> Optional[Injector]:
        # The callback writes the log it is handed, not ``injector.log``: a
        # closure over the injector would be a cycle that keeps the whole
        # system out of reach of reference counting after the run.
        log: List[ChurnLogEntry] = []
        return ScheduledFaultInjector(
            system=system,
            at_s=self.at_fraction * system.config.simulation_duration_s,
            fire=lambda: self._fire(system, log),
            repeat_every_s=self.repeat_every_s,
            log=log,
        )

    def _fire(self, system: "FlowerCDN", log: List[ChurnLogEntry]) -> None:
        sim = system.sim
        alive = system.alive_content_peer_ids(self.locality)
        if alive:
            count = min(len(alive), max(1, math.ceil(self.fraction * len(alive))))
            victims = sim.streams.sample("fault:correlated-victims", alive, count)
            for victim in victims:
                if system.fail_content_peer(victim):
                    log.append(
                        ChurnLogEntry(
                            time=sim.now, kind="correlated_content_failure", target=victim
                        )
                    )
        if self.include_directories:
            for website, locality in system.active_directory_pairs(self.locality):
                if system.fail_directory(website, locality):
                    log.append(
                        ChurnLogEntry(
                            time=sim.now,
                            kind="correlated_directory_failure",
                            target=f"({website}, {locality})",
                        )
                    )


# -- reachability-backed fault models ------------------------------------------


class ReachabilityInjector:
    """Attaches a :class:`~repro.network.reachability.ReachabilityModel` to
    the live system for the duration of a run, optionally scheduling explicit
    post-heal reconciliation rounds (:meth:`FlowerCDN.reconcile`) at given
    simulation times.
    """

    def __init__(
        self,
        system: "FlowerCDN",
        model: ReachabilityModel,
        reconcile_at: Tuple[float, ...] = (),
        localities: Optional[Tuple[int, ...]] = None,
    ) -> None:
        self._system = system
        self._model = model
        self._reconcile_at = tuple(reconcile_at)
        self._localities = localities
        self._events: list = []
        self.log: List[ChurnLogEntry] = []

    @property
    def model(self) -> ReachabilityModel:
        return self._model

    def start(self) -> None:
        system = self._system
        system.attach_reachability(self._model)
        for time in self._reconcile_at:
            self._events.append(system.sim.at(time, self._reconcile, label="fault"))

    def _reconcile(self) -> None:
        system = self._system
        system.reconcile(self._localities)
        target = (
            ",".join(str(loc) for loc in self._localities)
            if self._localities is not None
            else "all"
        )
        self.log.append(
            ChurnLogEntry(
                time=system.sim.now, kind="partition_heal_reconcile", target=target
            )
        )

    def stop(self) -> None:
        for event in self._events:
            if not event.cancelled:
                self._system.sim.cancel(event)
        self._events.clear()
        self._system.detach_reachability()


@register_fault_model("locality-partition")
class LocalityPartitionFault:
    """A locality-level network partition: between ``at_fraction`` and
    ``at_fraction + duration_fraction`` of the run, every message crossing
    the boundary of the listed localities is lost (``asymmetric=True`` loses
    only outbound messages).  Peers stay alive throughout — this is the
    unreachable-not-failed regime that exercises redirection timeouts,
    suspicion backoff and origin-server degradation.  With
    ``reconcile_on_heal`` the affected localities run an explicit
    reconciliation round (keepalives, delta pushes, summary refreshes) the
    instant the partition heals instead of waiting for their periodic ticks.
    """

    def __init__(
        self,
        at_fraction: float = 0.4,
        duration_fraction: float = 0.2,
        localities: Tuple[int, ...] = (0,),
        asymmetric: bool = False,
        reconcile_on_heal: bool = True,
    ) -> None:
        if not 0.0 < at_fraction < 1.0:
            raise ValueError("at_fraction must be in (0, 1)")
        if not 0.0 < duration_fraction <= 1.0:
            raise ValueError("duration_fraction must be in (0, 1]")
        localities = tuple(localities)
        if not localities or any(loc < 0 for loc in localities):
            raise ValueError("localities must be a non-empty tuple of indices >= 0")
        self.at_fraction = at_fraction
        self.duration_fraction = duration_fraction
        self.localities = localities
        self.asymmetric = asymmetric
        self.reconcile_on_heal = reconcile_on_heal

    def attach(self, system: "FlowerCDN", spec: "ScenarioSpec") -> Optional[Injector]:
        duration = system.config.simulation_duration_s
        start = self.at_fraction * duration
        end = min(duration, start + self.duration_fraction * duration)
        model = LocalityPartition(
            episodes=((start, end),),
            localities=frozenset(self.localities),
            locality_of=system.topology.locality_of,
            asymmetric=self.asymmetric,
        )
        reconcile_at = (end,) if self.reconcile_on_heal and end < duration else ()
        return ReachabilityInjector(
            system, model, reconcile_at=reconcile_at, localities=self.localities
        )

    def website_separable(self, spec: "ScenarioSpec") -> bool:
        return True  # windows and the partition test are pure functions of the clock


@register_fault_model("gossip-loss")
class GossipLoss:
    """Probabilistic gossip-message loss: each attempted gossip exchange is
    dropped in transit with ``drop_probability`` — the lossy-network regime
    the paper's reliable-delivery assumption glosses over.  Knowledge then
    disseminates only through the surviving exchanges, stressing the same
    view/summary machinery as ``gossip-starved`` but stochastically.

    It is ``link-loss`` restricted to the ``"gossip"`` kind, drawing from its
    own ``"fault:gossip-loss"`` stream; drops and deliveries are counted in
    the system's ``delivery_stats``.
    """

    def __init__(self, drop_probability: float = 0.2) -> None:
        if not 0.0 <= drop_probability <= 1.0:
            raise ValueError("drop_probability must be in [0, 1]")
        self.drop_probability = drop_probability

    def attach(self, system: "FlowerCDN", spec: "ScenarioSpec") -> Optional[Injector]:
        if self.drop_probability == 0.0:
            # No loss means no filter and no stream draws: the run stays
            # byte-identical to the "none" fault model.
            return None
        stream = system.sim.streams.stream("fault:gossip-loss")
        model = LinkLoss(self.drop_probability, stream, kinds=("gossip",))
        # No resilience block: the gossip-lossy golden predates it.
        model.emits_metrics = False
        return ReachabilityInjector(system, model)


@register_fault_model("link-loss")
class LinkLossFault:
    """Stationary per-message loss across the whole network: every gated
    protocol message (or only the listed ``kinds``) is independently dropped
    with ``drop_probability``.  Unlike ``gossip-loss`` this stresses *all*
    protocol paths — keepalives, pushes, redirections, D-ring summaries and
    replication — from the dedicated ``"fault:link-loss"`` stream.
    """

    def __init__(
        self, drop_probability: float = 0.05, kinds: Tuple[str, ...] = ()
    ) -> None:
        if not 0.0 <= drop_probability <= 1.0:
            raise ValueError("drop_probability must be in [0, 1]")
        kinds = tuple(kinds)
        unknown = [kind for kind in kinds if kind not in MESSAGE_KINDS]
        if unknown:
            raise ValueError(
                f"unknown message kind(s) {unknown}; known kinds: {MESSAGE_KINDS}"
            )
        self.drop_probability = drop_probability
        self.kinds = kinds

    def attach(self, system: "FlowerCDN", spec: "ScenarioSpec") -> Optional[Injector]:
        if self.drop_probability == 0.0:
            # No loss means no gate and no stream draws: the run stays
            # byte-identical to the "none" fault model.
            return None
        stream = system.sim.streams.stream("fault:link-loss")
        model = LinkLoss(self.drop_probability, stream, self.kinds)
        return ReachabilityInjector(system, model)


@register_fault_model("cascading-directory-failures")
class CascadingDirectoryFailures:
    """A cascade of directory outages: starting at ``start_fraction`` of the
    run, the hosts of the first ``count`` directory peers of one locality
    become unreachable one after the other (``interval_fraction`` apart),
    each for ``outage_duration_fraction`` of the run.  The directories stay
    alive, so the Section 5.2 replacement protocol must *not* fire; queries
    degrade to the origin server until each host resurfaces.
    """

    def __init__(
        self,
        start_fraction: float = 0.3,
        interval_fraction: float = 0.04,
        outage_duration_fraction: float = 0.18,
        count: int = 4,
        locality: int = 0,
        reconcile_on_heal: bool = False,
    ) -> None:
        if not 0.0 < start_fraction < 1.0:
            raise ValueError("start_fraction must be in (0, 1)")
        if interval_fraction < 0:
            raise ValueError("interval_fraction must be non-negative")
        if not 0.0 < outage_duration_fraction <= 1.0:
            raise ValueError("outage_duration_fraction must be in (0, 1]")
        if count <= 0:
            raise ValueError("count must be positive")
        if locality < 0:
            raise ValueError("locality must be non-negative")
        self.start_fraction = start_fraction
        self.interval_fraction = interval_fraction
        self.outage_duration_fraction = outage_duration_fraction
        self.count = count
        self.locality = locality
        self.reconcile_on_heal = reconcile_on_heal

    def attach(self, system: "FlowerCDN", spec: "ScenarioSpec") -> Optional[Injector]:
        duration = system.config.simulation_duration_s
        start = self.start_fraction * duration
        interval = self.interval_fraction * duration
        outage = self.outage_duration_fraction * duration
        windows: List[Tuple[int, float, float]] = []
        # The system is already bootstrapped when models attach, so the
        # sorted pair list pins the victim set deterministically.
        for index, (website, locality) in enumerate(
            system.active_directory_pairs(self.locality)[: self.count]
        ):
            directory = system.directory_for(website, locality)
            if directory is None:
                continue
            begin = start + index * interval
            end = min(duration, begin + outage)
            if begin >= duration or end <= begin:
                continue
            windows.append((directory.host_id, begin, end))
        if not windows:
            return None
        model = HostOutage(tuple(windows))
        heal = max(end for _, _, end in windows)
        reconcile_at = (heal,) if self.reconcile_on_heal and heal < duration else ()
        return ReachabilityInjector(
            system, model, reconcile_at=reconcile_at, localities=(self.locality,)
        )
