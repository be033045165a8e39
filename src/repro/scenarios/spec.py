"""Declarative scenario specifications.

A :class:`ScenarioSpec` captures *everything* one end-to-end simulated run
needs — topology size, catalogue, workload skew, gossip parameters, churn
profile, duration and seed — as a single frozen dataclass.  Specs are the
single source of truth for experiment configurations: the CLI, the benchmark
suite, the examples and the golden-metrics regression tests all build their
:class:`~repro.experiments.driver.ExperimentSetup` through
:meth:`ScenarioSpec.to_setup` instead of repeating parameter dicts.

Specs are value objects: :meth:`ScenarioSpec.scaled` derives a smaller (or
larger) variant that preserves the parameter ratios, and ``dataclasses.replace``
covers ad-hoc tweaks.  The named library of specs lives in
:mod:`repro.scenarios.library`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from typing import Dict, Mapping, Optional, Tuple

from repro.baselines.squirrel import SquirrelConfig
from repro.core.churn import ChurnProfile
from repro.core.config import HOUR, MINUTE, FlowerConfig, GossipConfig
from repro.experiments.driver import ExperimentSetup
from repro.network.topology import TopologyConfig
from repro.scenarios.models import (
    DEFAULT_CHURN_MODEL,
    DEFAULT_FAULT_MODEL,
    ModelRef,
    build_churn_model,
    build_fault_model,
)
from repro.scenarios.program import WorkloadPhase, compile_program, scale_program
from repro.workload.generator import WorkloadConfig
from repro.workload.phases import PhaseSpan

#: system identifiers a scenario may ask to run
KNOWN_SYSTEMS = ("flower", "squirrel")
#: scenario tiers: "standard" runs in the per-PR golden/CI gate, "paper-scale"
#: is the nightly tier (full Table 1 scale, minutes per run)
KNOWN_TIERS = ("standard", "paper-scale")
#: event-queue backends a scenario may pin (see repro.sim.engine)
KNOWN_QUEUE_BACKENDS = ("heap", "calendar")
#: DHT substrates the D-ring layer can run on (see repro.core.dring)
KNOWN_DHT_SUBSTRATES = ("chord", "pastry")
_CHURN_RATES = tuple(rate.name for rate in fields(ChurnProfile))


@dataclass(frozen=True)
class ScenarioSpec:
    """One fully-specified simulation scenario.

    The defaults reproduce the repository's canonical laptop scale (the
    Table 1 parameter ratios shrunk so one run finishes in a couple of
    seconds); ``scaled(factor)`` shrinks or grows a spec while keeping those
    ratios.
    """

    name: str
    description: str = ""

    # -- underlying network ------------------------------------------------
    num_hosts: int = 600
    num_localities: int = 3

    # -- catalogue and overlays --------------------------------------------
    num_websites: int = 20
    active_websites: int = 2
    objects_per_website: int = 200
    max_content_overlay_size: int = 40
    #: optional LRU bound on each content peer's cache (None: unbounded,
    #: the paper's assumption)
    content_cache_capacity: Optional[int] = None
    #: where a content peer sends a query its view cannot resolve: "server"
    #: (the default) or "directory" (the ablation FlowerConfig documents;
    #: resilience scenarios use it so partitions hit the directory path)
    content_miss_fallback: str = "server"

    # -- workload ----------------------------------------------------------
    query_rate_per_s: float = 2.0
    zipf_alpha: float = 0.8
    arrival_process: str = "poisson"
    locality_weights: Tuple[float, ...] = ()
    #: the scenario *program*: an ordered tuple of
    #: :class:`~repro.scenarios.program.WorkloadPhase` values describing a
    #: time-varying workload (empty = one stationary phase, the historical
    #: behaviour; see docs/scenarios.md "Composing scenario programs")
    program: Tuple[WorkloadPhase, ...] = ()

    # -- gossip ------------------------------------------------------------
    gossip_period_s: float = 30 * MINUTE
    gossip_length: int = 10
    view_size: int = 50
    push_threshold: float = 0.1
    keepalive_period_s: Optional[float] = None  # None: same as gossip_period_s

    # -- churn and faults --------------------------------------------------
    churn: ChurnProfile = field(default_factory=ChurnProfile)
    #: which registered churn model consumes the profile ("poisson" is the
    #: historical tick-based injector; see repro.scenarios.models)
    churn_model: ModelRef = field(default_factory=lambda: ModelRef(DEFAULT_CHURN_MODEL))
    #: scheduled disturbance events ("none", "correlated-locality", ...)
    fault_model: ModelRef = field(default_factory=lambda: ModelRef(DEFAULT_FAULT_MODEL))

    # -- run ---------------------------------------------------------------
    duration_s: float = 3 * HOUR
    metrics_window_s: Optional[float] = None  # None: duration_s / 12
    seed: int = 42
    #: which systems the scenario runs, in order ("flower", "squirrel")
    systems: Tuple[str, ...] = ("flower",)
    #: fraction of the run treated as warm-up when splitting phase metrics
    warmup_fraction: float = 0.5
    #: which golden/CI tier the scenario belongs to ("standard" | "paper-scale")
    tier: str = "standard"
    #: event-queue backend the scenario's simulators use ("heap" | "calendar");
    #: both are byte-identical, the choice is purely a performance matter
    queue_backend: str = "heap"
    #: DHT substrate under the D-ring ("chord", the paper's evaluation, or
    #: "pastry", the other overlay named in Section 3.1) — unlike
    #: queue_backend this *changes routing behaviour*, so substrate
    #: scenarios carry their own goldens
    dht_substrate: str = "chord"
    #: fold metrics into compact array reservoirs instead of retaining
    #: per-query records (the paper-scale memory mode)
    compact_metrics: bool = False
    #: over how many worker processes the run's blocks (one website's flower
    #: each) are placed: 1 (the default) runs them one after another in this
    #: process; N >= 2 needs a separable spec (website-separable churn and
    #: fault models — see repro.core.sharding and docs/performance.md; a
    #: Squirrel half stays one system).  Results do not depend on it.
    shards: int = 1

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario name must be non-empty")
        if not self.systems:
            raise ValueError("a scenario must run at least one system")
        if self.tier not in KNOWN_TIERS:
            raise ValueError(f"unknown tier {self.tier!r}; expected one of {KNOWN_TIERS}")
        if self.queue_backend not in KNOWN_QUEUE_BACKENDS:
            raise ValueError(
                f"unknown queue backend {self.queue_backend!r}; "
                f"expected one of {KNOWN_QUEUE_BACKENDS}"
            )
        if self.dht_substrate not in KNOWN_DHT_SUBSTRATES:
            raise ValueError(
                f"unknown DHT substrate {self.dht_substrate!r}; "
                f"expected one of {KNOWN_DHT_SUBSTRATES}"
            )
        for system in self.systems:
            if system not in KNOWN_SYSTEMS:
                raise ValueError(
                    f"unknown system {system!r}; expected one of {KNOWN_SYSTEMS}"
                )
        if len(set(self.systems)) != len(self.systems):
            raise ValueError("systems must not repeat")
        # NaN and +-inf pass every comparison below (and JSON request bodies
        # may carry them): a non-finite rate or horizon is a run that never
        # ends, so reject any, program phases and model params included.
        non_finite = _first_non_finite(self.to_dict())
        if non_finite is not None:
            raise ValueError(f"{non_finite[0]} must be finite, got {non_finite[1]!r}")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must be in [0, 1)")
        if self.keepalive_period_s is not None and self.keepalive_period_s <= 0:
            raise ValueError("keepalive_period_s must be positive or None")
        if self.metrics_window_s is not None and self.metrics_window_s <= 0:
            raise ValueError("metrics_window_s must be positive or None")
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.shards > 1:
            # Fail at construction time, not mid-run: a model that keeps the
            # catalogue in one block leaves nothing to deal over workers.
            from repro.core.sharding import inseparable_reason

            reason = inseparable_reason(self)
            if reason is not None:
                raise ValueError(reason)
        if "squirrel" in self.systems:
            # The Squirrel baseline has no churn/fault-injection support;
            # allowing dynamicity here would silently present an unfair
            # comparison (churned Flower-CDN vs churn-free Squirrel) as
            # same-conditions.
            if self.churn.is_enabled:
                raise ValueError("churn profiles only apply to 'flower' scenarios")
            if self.churn_model.name != DEFAULT_CHURN_MODEL and self.churn_model.name != "none":
                raise ValueError("churn models only apply to 'flower' scenarios")
            if self.fault_model.name != DEFAULT_FAULT_MODEL:
                raise ValueError("fault models only apply to 'flower' scenarios")
        # Resolve the model references eagerly so an unknown model name, a
        # bad parameter or a locality the spec lacks fails at construction
        # time, not mid-run (or, worse, as a run that injects nothing).
        for model in (build_churn_model(self.churn_model), build_fault_model(self.fault_model)):
            check_spec = getattr(model, "check_spec", None)
            if check_spec is not None:
                check_spec(self)
        # Compile the program eagerly: phases must tile [0, duration_s).
        self.compiled_program()
        # The remaining fields are validated by the config objects they feed
        # (FlowerConfig, WorkloadConfig, TopologyConfig) in to_setup(); build
        # them eagerly so an invalid spec fails at construction time.
        self.to_setup()

    # -- derived -----------------------------------------------------------

    @property
    def effective_metrics_window_s(self) -> float:
        if self.metrics_window_s is not None:
            return self.metrics_window_s
        return max(60.0, self.duration_s / 12.0)

    @property
    def effective_keepalive_period_s(self) -> float:
        if self.keepalive_period_s is not None:
            return self.keepalive_period_s
        return self.gossip_period_s

    @property
    def warmup_s(self) -> float:
        """Absolute warm-up horizon separating the two metric phases."""
        return self.warmup_fraction * self.duration_s

    def locality_bits(self) -> int:
        """Identifier bits needed to encode ``num_localities`` (min. 3)."""
        return max(3, math.ceil(math.log2(max(2, self.num_localities))))

    def compiled_program(self) -> Tuple[PhaseSpan, ...]:
        """The program compiled to absolute, contiguous workload spans."""
        return compile_program(self.program, self.duration_s)

    # -- construction of the runtime configuration -------------------------

    def to_flower_config(self) -> FlowerConfig:
        return FlowerConfig(
            num_websites=self.num_websites,
            active_websites=self.active_websites,
            objects_per_website=self.objects_per_website,
            num_localities=self.num_localities,
            max_content_overlay_size=self.max_content_overlay_size,
            content_cache_capacity=self.content_cache_capacity,
            content_miss_fallback=self.content_miss_fallback,
            locality_bits=self.locality_bits(),
            dht_substrate=self.dht_substrate,
            gossip=GossipConfig(
                gossip_period_s=self.gossip_period_s,
                view_size=self.view_size,
                gossip_length=self.gossip_length,
                push_threshold=self.push_threshold,
                keepalive_period_s=self.effective_keepalive_period_s,
            ),
            simulation_duration_s=self.duration_s,
            metrics_window_s=self.effective_metrics_window_s,
        )

    def to_setup(self, seed: Optional[int] = None) -> ExperimentSetup:
        """Compose the :class:`ExperimentSetup` this scenario describes."""
        flower = self.to_flower_config()
        return ExperimentSetup(
            flower=flower,
            topology=TopologyConfig(
                num_hosts=self.num_hosts,
                num_localities=self.num_localities,
                locality_weights=self.locality_weights,
            ),
            workload=WorkloadConfig(
                num_websites=self.num_websites,
                active_websites=self.active_websites,
                objects_per_website=self.objects_per_website,
                num_localities=self.num_localities,
                query_rate_per_s=self.query_rate_per_s,
                zipf_alpha=self.zipf_alpha,
                arrival_process=self.arrival_process,
                locality_weights=self.locality_weights,
            ),
            squirrel=SquirrelConfig(metrics_window_s=flower.metrics_window_s),
            seed=self.seed if seed is None else seed,
            queue_backend=self.queue_backend,
            compact_metrics=self.compact_metrics,
            phases=self.compiled_program(),
        )

    # -- derivation --------------------------------------------------------

    def scaled(self, factor: float) -> "ScenarioSpec":
        """A ratio-preserving smaller/larger variant of this scenario.

        Population sizes, catalogue sizes and the duration shrink linearly
        with ``factor`` (bounded below so the result stays a valid, meaningful
        simulation); rates, skews and gossip parameters are scale-free and
        stay untouched.  Used by the golden-metrics suite and the fast tests.
        """
        if not is_scale_factor(factor):
            raise ValueError(f"factor must be positive and finite, got {factor!r}")
        num_websites = max(self.active_websites, round(self.num_websites * factor))
        duration_s = max(900.0, self.duration_s * factor)
        capacity = self.content_cache_capacity
        if capacity is not None:
            capacity = max(5, round(capacity * factor))
        return replace(
            self,
            num_hosts=max(60, round(self.num_hosts * factor)),
            num_websites=num_websites,
            objects_per_website=max(20, round(self.objects_per_website * factor)),
            max_content_overlay_size=max(8, round(self.max_content_overlay_size * factor)),
            content_cache_capacity=capacity,
            duration_s=duration_s,
            # Phase durations shrink with the run itself (the duration floor
            # means the effective factor can differ from ``factor``).
            program=scale_program(self.program, duration_s / self.duration_s),
            metrics_window_s=None,
        )

    def with_seed(self, seed: int) -> "ScenarioSpec":
        return replace(self, seed=seed)

    def to_dict(self) -> Dict[str, object]:
        """A JSON-serialisable description (recorded in golden files).

        Keys in field order; every nested value is a fresh plain container,
        so the caller owns the document.
        """
        data: Dict[str, object] = {name: getattr(self, name) for name in _SPEC_FIELDS}
        data["systems"] = list(self.systems)
        data["locality_weights"] = list(self.locality_weights)
        data["program"] = [phase.to_dict() for phase in self.program]
        data["churn"] = {name: getattr(self.churn, name) for name in _CHURN_RATES}
        data["churn_model"] = self.churn_model.to_dict()
        data["fault_model"] = self.fault_model.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ScenarioSpec":
        """Rebuild a spec from its :meth:`to_dict` description.

        The inverse of :meth:`to_dict` — ``ScenarioSpec.from_dict(spec.to_dict())``
        reproduces ``spec`` exactly, including the nested churn profile, model
        references and workload program.  This is how external representations
        (golden files, the ``repro serve`` HTTP API) turn back into runnable
        specs; unknown keys are rejected so a typo fails loudly instead of
        silently running the defaults.
        """
        unknown = sorted(set(data).difference(_SPEC_FIELDS))
        if unknown:
            raise ValueError(
                f"unknown ScenarioSpec field(s): {', '.join(unknown)}; "
                f"expected a subset of {sorted(_SPEC_FIELDS)}"
            )
        kwargs: Dict[str, object] = dict(data)
        churn = kwargs.get("churn")
        if isinstance(churn, Mapping):
            kwargs["churn"] = ChurnProfile(**{str(k): v for k, v in churn.items()})
        for key in ("churn_model", "fault_model"):
            ref = kwargs.get(key)
            if isinstance(ref, str):
                kwargs[key] = ModelRef(ref)
            elif isinstance(ref, Mapping):
                params = ref.get("params", {})
                if not isinstance(params, Mapping):
                    raise ValueError(f"{key}.params must be a mapping")
                kwargs[key] = ModelRef.of(
                    str(ref.get("name", "")),
                    **{str(k): _freeze_value(v) for k, v in params.items()},
                )
        program = kwargs.get("program")
        if program is not None:
            if not isinstance(program, (list, tuple)):
                raise ValueError("program must be a list of phase objects")
            kwargs["program"] = tuple(
                phase
                if isinstance(phase, WorkloadPhase)
                else WorkloadPhase(**{str(k): v for k, v in dict(phase).items()})
                for phase in program
            )
        weights = kwargs.get("locality_weights")
        if weights is not None:
            if not isinstance(weights, (list, tuple)):
                raise ValueError("locality_weights must be a list of numbers")
            kwargs["locality_weights"] = tuple(weights)
        systems = kwargs.get("systems")
        if systems is not None:
            if not isinstance(systems, (list, tuple)):
                raise ValueError("systems must be a list of system names")
            kwargs["systems"] = tuple(systems)
        return cls(**kwargs)  # type: ignore[arg-type]


#: the spec's field names, in declaration order (what ``to_dict`` walks)
_SPEC_FIELDS = tuple(spec_field.name for spec_field in fields(ScenarioSpec))


def is_scale_factor(value: float) -> bool:
    """Whether ``value`` can scale a spec: positive and finite."""
    return math.isfinite(value) and value > 0


def _first_non_finite(value: object, path: str = "") -> Optional[Tuple[str, float]]:
    """The first non-finite float in a document: its path
    (``program[0].rate_multiplier``) and its value."""
    if isinstance(value, float):
        return None if math.isfinite(value) else (path, value)
    if isinstance(value, dict):
        items = [(f"{path}.{key}" if path else str(key), item) for key, item in value.items()]
    elif isinstance(value, (list, tuple)):
        items = [(f"{path}[{index}]", item) for index, item in enumerate(value)]
    else:
        return None
    for item_path, item in items:
        found = _first_non_finite(item, item_path)
        if found is not None:
            return found
    return None


def _freeze_value(value: object) -> object:
    """JSON-decoded model parameters, hashable again (lists become tuples)."""
    if isinstance(value, list):
        return tuple(_freeze_value(item) for item in value)
    return value
