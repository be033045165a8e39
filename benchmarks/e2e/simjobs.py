"""One simulation *job*: a scenario spec in, the run's bundle documents out.

This is the unit every simulation workload repeats, and the same function
serves the untraced and the traced pass so the two can only differ by the
spans.  It reaches the program through its public entry points alone:
:class:`repro.session.Session`, :func:`summarise_system`,
:func:`run_documents`.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, replace
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

from repro.core.config import HOUR
from repro.scenarios.artifacts import run_documents
from repro.scenarios.library import get_scenario, scenario_names
from repro.scenarios.runner import ScenarioResult, summarise_system
from repro.scenarios.spec import ScenarioSpec
from repro.session import Session

from sizes import Sizes
from tracing import Tracer


@dataclass
class JobOutcome:
    """What one job produced and what it cost."""

    name: str
    documents: Dict[str, str]
    result: ScenarioResult
    session: Session
    #: Session construction + topology + catalogue + resolved trace, seconds
    setup_s: float
    #: spec in -> documents out, seconds
    job_s: float
    #: simulated queries resolved, summed over the spec's systems
    queries: int


def paper_scale_spec(hours: float) -> ScenarioSpec:
    """Table 1's population and protocol constants for ``hours`` simulated hours.

    24 hours is the registered ``paper-default-full-scale`` scenario itself;
    a shorter horizon is the same experiment cut off earlier (hosts,
    websites, summary width, overlay size, gossip period, query rate, queue
    and metrics backends all stay at their Table 1 values).
    """
    spec = get_scenario("paper-default-full-scale")
    if hours == 24.0:
        return spec
    return replace(spec, duration_s=hours * HOUR, metrics_window_s=None)


def paper_spec(sizes: Sizes) -> ScenarioSpec:
    """The spec ``paper-scale`` and ``paper-scale-sharded`` run at ``sizes``."""
    if sizes.paper_hours > 0:
        return paper_scale_spec(sizes.paper_hours)
    # Smoke: a tiny inline spec on the same backends (calendar queue, compact
    # metrics) with enough active websites to split over two shards.
    return ScenarioSpec(
        name="e2e-smoke-inline",
        num_hosts=240,
        num_localities=3,
        num_websites=8,
        active_websites=4,
        objects_per_website=40,
        max_content_overlay_size=10,
        duration_s=0.5 * HOUR,
        gossip_period_s=300.0,
        queue_backend="calendar",
        compact_metrics=True,
    )


def standard_batch_specs(names: Optional[List[str]], scale: float) -> List[ScenarioSpec]:
    """The standard-tier library scenarios, in registry order."""
    selected = scenario_names("standard") if names is None else names
    specs = [get_scenario(name) for name in selected]
    return [spec if scale == 1.0 else spec.scaled(scale) for spec in specs]


def feasible_seed(spec: ScenarioSpec, seed: int) -> int:
    """The scenario seed that workload seed ``seed`` maps to for ``spec``.

    Part of input generation (untimed): ``seed`` itself, unless the topology
    drawn at that seed cannot host the spec's directory peers — a few seeds
    of ``multi-locality`` leave a locality with fewer hosts than websites —
    in which case the first of ``seed + 1000, seed + 2000, ...`` that can.
    """
    for candidate in range(seed, seed + 16000, 1000):
        try:
            Session.from_spec(spec, seed=candidate).build_flower()
        except RuntimeError:
            continue
        return candidate
    raise RuntimeError(f"no feasible seed near {seed} for scenario {spec.name!r}")


def run_job(
    spec: ScenarioSpec,
    seed: int,
    scale: float = 1.0,
    tracer: Optional[Tracer] = None,
    shards: int = 1,
    shard_jobs: Optional[int] = None,
) -> JobOutcome:
    """Run ``spec`` through a :class:`Session` and serialise its bundle."""

    def span(name: str) -> Any:
        return tracer.span(name) if tracer is not None else nullcontext()

    if tracer is not None:
        tracer.run_id = f"{spec.name}/seed={seed}"
    started = perf_counter()
    with span("job"):
        with span("session.construct"):
            session = Session.from_spec(spec, seed=seed, shards=shards, shard_jobs=shard_jobs)
        if shards == 1:
            # The single-process path builds its environment lazily; asking
            # for the trace here makes set-up a phase of its own.  Sharded
            # runs set up inside each shard (see ShardRunStats).
            with span("experiments.setup"):
                session.resolved_trace()
        setup_s = perf_counter() - started
        if tracer is None:
            result = session.run()
        else:
            result = _run_with_spans(session, tracer)
        with span("scenarios.documents"):
            documents = run_documents(result, scale=scale)
    job_s = perf_counter() - started
    queries = sum(int(system.metrics["num_queries"]) for system in result.systems.values())
    return JobOutcome(spec.name, documents, result, session, setup_s, job_s, queries)


def _run_with_spans(session: Session, tracer: Tracer) -> ScenarioResult:
    """:meth:`Session.run`, with a span around each of its two steps."""
    systems = {}
    for system in session.spec.systems:
        tracer.system = system
        with tracer.span("experiments.run_system"):
            run = session.run_system(system)
        with tracer.span("metrics.summarise"):
            systems[system] = summarise_system(session.spec, system, run)
    return ScenarioResult(spec=session.spec, seed=session.seed, systems=systems)


def simulated_statistics(outcome: JobOutcome) -> Dict[str, Tuple[float, str]]:
    """Flower-CDN's simulated statistics of a single-process job: exact
    repeats for a fixed seed."""
    metrics = outcome.result.systems["flower"].metrics
    peers = outcome.session.experiment.last_flower_system.num_content_peers
    return {
        "core.hit_ratio": (float(metrics["hit_ratio"]), "ratio"),
        "core.avg_lookup_latency_ms": (float(metrics["average_lookup_latency_ms"]), "ms"),
        "core.avg_transfer_distance_ms": (float(metrics["average_transfer_distance_ms"]), "ms"),
        "core.background_bps_per_peer": (float(metrics["background_bps_per_peer"]), "bps"),
        "core.redirection_failures": (float(metrics["redirection_failures"]), "count"),
        "core.num_content_peers": (float(peers), "count"),
    }
