"""Sharded space-parallel execution of Flower-CDN scenarios.

One scenario run is split into ``N`` shard engines, each a complete
:class:`~repro.sim.engine.Simulator` + :class:`~repro.core.system.FlowerCDN`
owning a website-atomic slice of the workload (see
:mod:`repro.core.sharding` for why the partition makes the cross-shard
message channel empty, and therefore the merged outputs exactly equal to a
single-process run).  Shards fan out over the shared
:func:`repro.scenarios.parallel.map_tasks` pool; each advances through the
conservative window barriers derived from the spec's lookahead and reports
a typed :class:`~repro.core.sharding.WindowReport` per window.

Merging is exact, not approximate:

* retained-records mode concatenates the per-shard query records, sorts
  them by ``(time, query_id)`` (the single-process dispatch order) and
  replays them into a fresh collector — bitwise-identical series,
  histograms and counts;
* compact mode (paper scale) folds the per-shard reservoirs bucket-wise —
  integer counts and integer-valued byte totals add exactly;
* bandwidth, delivery-gate and resilience blocks merge by the rules in
  their classes (sums, min-first-seen, max reconciliation rounds, then a
  recompute of the resilience summary over the merged series).

``shards=1`` never reaches this module: the session runs the plain
single-process path, which the shard-count-independence tests then compare
against.
"""

from __future__ import annotations

# Wall-clock reads below are perf accounting only (ShardRunStats); they
# never feed simulated time or draws, hence the DET002 suppressions.
import time as _time
from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

if TYPE_CHECKING:
    from repro.scenarios.spec import ScenarioSpec

from repro.core.sharding import (
    ShardPlan,
    WindowReport,
    conservative_lookahead_s,
    plan_shards,
    validate_shardable,
    window_boundaries,
)
from repro.core.system import FlowerCDN
from repro.experiments.driver import ExperimentRunner, RunResult, flatten_injectors
from repro.metrics.collectors import BandwidthAccountant, MetricsCollector
from repro.metrics.resilience import summarise_resilience
from repro.network.latency import LatencyModel
from repro.network.reachability import DeliveryStats
from repro.scenarios.models import build_churn_model, build_fault_model
from repro.sim.engine import Simulator
from repro.workload.trace import ResolvedTraceArrays


@dataclass(frozen=True)
class ShardTask:
    """Everything one worker needs to run one shard (picklable)."""

    spec: object  # ScenarioSpec (kept duck-typed to avoid an import cycle)
    seed: int
    shard_index: int
    num_shards: int
    websites: Tuple[str, ...]


@dataclass
class ShardOutcome:
    """One shard's complete result, shipped back for the barrier merge."""

    shard_index: int
    websites: Tuple[str, ...]
    events_fired: int
    num_queries: int
    setup_s: float
    dispatch_s: float
    reports: Tuple[WindowReport, ...]
    metrics: MetricsCollector
    bandwidth: BandwidthAccountant
    delivery_stats: Optional[DeliveryStats]
    fault_windows: Tuple[Tuple[float, float], ...]
    emits_resilience: bool


@dataclass(frozen=True)
class ShardRunStats:
    """Coordinator-side accounting of one sharded run (perf reporting)."""

    num_shards: int
    lookahead_s: float
    num_windows: int
    wall_s: float
    setup_s_per_shard: Tuple[float, ...]
    dispatch_s_per_shard: Tuple[float, ...]
    events_per_shard: Tuple[int, ...]
    queries_per_shard: Tuple[int, ...]

    @property
    def total_events(self) -> int:
        return sum(self.events_per_shard)

    @property
    def critical_path_s(self) -> float:
        """The slowest shard's dispatch time: the lockstep-parallel bound."""
        return max(self.dispatch_s_per_shard) if self.dispatch_s_per_shard else 0.0


# -- per-shard worker ----------------------------------------------------------


def _filter_trace(trace: ResolvedTraceArrays, websites: frozenset) -> ResolvedTraceArrays:
    """The sub-trace of queries targeting ``websites`` (columns copied).

    Every worker rebuilds the *full* resolved trace from ``(spec, seed)``
    (bit-identical across processes) and keeps only its own websites'
    queries; query ids, times and client assignments are untouched, so the
    union of all shards' sub-traces is exactly the original trace.
    """
    wanted = {
        index
        for index, website in enumerate(trace.websites)
        if website.name in websites
    }
    keep = [i for i, w in enumerate(trace.website_index) if w in wanted]

    def take(column: array) -> array:
        return array(column.typecode, [column[i] for i in keep])

    return ResolvedTraceArrays(
        websites=trace.websites,
        query_id=take(trace.query_id),
        times=take(trace.times),
        website_index=take(trace.website_index),
        object_rank=take(trace.object_rank),
        locality=take(trace.locality),
        client_host=take(trace.client_host),
        is_new=take(trace.is_new),
    )


def _run_shard(task: ShardTask) -> ShardOutcome:
    """Run one shard start to finish, advancing in conservative windows."""
    spec = task.spec
    setup = spec.to_setup(task.seed)
    duration = setup.flower.simulation_duration_s

    setup_started = _time.perf_counter()  # repro: allow(DET002)
    runner = ExperimentRunner(setup)
    trace = runner.resolved_trace()
    sub_trace = _filter_trace(trace, frozenset(task.websites))

    sim = Simulator(
        seed=setup.seed, end_time=duration, queue_backend=setup.queue_backend
    )
    system = FlowerCDN(
        setup.flower,
        sim,
        runner.topology,
        latency_model=LatencyModel(runner.topology),
        catalog=runner.catalog,
        compact_metrics=setup.compact_metrics,
        owned_websites=frozenset(task.websites),
    )
    system.bootstrap()

    # Attach the spec's churn/fault models exactly like Session.attach_models
    # does on the single-process path.  validate_shardable() has already
    # guaranteed the churn profile is idle and the fault model time-driven,
    # so per-shard attachment reproduces the union run.
    injectors = flatten_injectors(
        (
            build_churn_model(spec.churn_model).attach(system, spec),
            build_fault_model(spec.fault_model).attach(system, spec),
        )
    )
    for injector in injectors:
        injector.start()

    sim.schedule_trace(
        sub_trace.times, sub_trace.replayer(system.process_query), label="query"
    )
    setup_s = _time.perf_counter() - setup_started  # repro: allow(DET002)

    lookahead = conservative_lookahead_s(spec)
    boundaries = window_boundaries(duration, lookahead)
    reports: List[WindowReport] = []
    dispatch_started = _time.perf_counter()  # repro: allow(DET002)
    for window_index, boundary in enumerate(boundaries):
        sim.run(until=boundary)
        reports.append(
            WindowReport(
                timestamp=boundary,
                shard=task.shard_index,
                seq=window_index,
                window_index=window_index,
                window_end_s=boundary,
                events_fired=sim.events_fired,
                queries_handled=system.metrics.num_queries,
            )
        )
    dispatch_s = _time.perf_counter() - dispatch_started  # repro: allow(DET002)

    for injector in reversed(injectors):
        injector.stop()
    system.shutdown()
    sim.discard_pending()

    model = system.reachability or system._last_reachability
    emits = bool(model is not None and model.emits_metrics and system.delivery_stats)
    fault_windows = tuple(model.fault_windows()) if emits else ()
    return ShardOutcome(
        shard_index=task.shard_index,
        websites=task.websites,
        events_fired=sim.events_fired,
        num_queries=system.metrics.num_queries,
        setup_s=setup_s,
        dispatch_s=dispatch_s,
        reports=tuple(reports),
        metrics=system.metrics,
        bandwidth=system.bandwidth,
        delivery_stats=system.delivery_stats,
        fault_windows=fault_windows,
        emits_resilience=emits,
    )


# -- barrier merge -------------------------------------------------------------


def merge_outcomes(
    spec: "ScenarioSpec", outcomes: Sequence[ShardOutcome]
) -> RunResult:
    """Fold per-shard outcomes into the single-process :class:`RunResult`.

    Outcomes are consumed in shard order and their records in
    ``(time, query_id)`` order — the deterministic merge order every digest
    relies on.
    """
    duration = spec.duration_s
    window_s = spec.effective_metrics_window_s
    retained = not spec.compact_metrics

    merged = MetricsCollector(window_s=window_s, retain_records=retained)
    if retained:
        records = [
            record for outcome in outcomes for record in outcome.metrics.records
        ]
        records.sort(key=lambda record: (record.time, record.query_id))
        merged.record_all(records)
    else:
        for outcome in outcomes:
            merged.merge_compact_from(outcome.metrics)

    bandwidth = BandwidthAccountant(window_s=window_s)
    for outcome in outcomes:
        bandwidth.merge_from(outcome.bandwidth)

    stats: Optional[DeliveryStats] = None
    if any(outcome.delivery_stats is not None for outcome in outcomes):
        stats = DeliveryStats()
        for outcome in outcomes:
            if outcome.delivery_stats is not None:
                stats.merge_from(outcome.delivery_stats)

    resilience = None
    if stats is not None and any(outcome.emits_resilience for outcome in outcomes):
        fault_windows: Sequence[Tuple[float, float]] = ()
        for outcome in outcomes:
            if outcome.emits_resilience:
                fault_windows = outcome.fault_windows
                break
        resilience = summarise_resilience(
            merged.hit_ratio_series, fault_windows, duration, stats
        )

    return RunResult.from_metrics(
        "Flower-CDN",
        duration,
        merged,
        # Diagnostics, not a digest metric: summed over the shard engines.
        sum(outcome.events_fired for outcome in outcomes),
        bandwidth=bandwidth,
        resilience=resilience,
    )


# -- public entry --------------------------------------------------------------


def run_sharded_flower(
    spec: "ScenarioSpec",
    seed: Optional[int] = None,
    shards: int = 2,
    jobs: Optional[int] = None,
) -> Tuple[RunResult, ShardRunStats]:
    """Run a flower scenario across ``shards`` shard engines and merge.

    ``jobs`` sizes the worker pool (``None``: the CPU-affinity default;
    ``1`` runs every shard inline in this process — same results, handy for
    tests and debugging).  Returns the merged :class:`RunResult` plus the
    coordinator's :class:`ShardRunStats`.
    """
    if shards < 2:
        raise ValueError(
            f"shards must be >= 2 for sharded execution, got {shards} "
            "(shards=1 is the single-process path)"
        )
    validate_shardable(spec)
    resolved_seed = spec.seed if seed is None else seed
    plan: ShardPlan = plan_shards(spec, shards)
    tasks = [
        ShardTask(
            spec=spec,
            seed=resolved_seed,
            shard_index=index,
            num_shards=shards,
            websites=websites,
        )
        for index, websites in enumerate(plan.assignments)
    ]
    wall_started = _time.perf_counter()  # repro: allow(DET002)
    outcomes = map_tasks_shards(tasks, jobs=jobs)
    wall_s = _time.perf_counter() - wall_started  # repro: allow(DET002)
    result = merge_outcomes(spec, outcomes)
    stats = ShardRunStats(
        num_shards=shards,
        lookahead_s=conservative_lookahead_s(spec),
        num_windows=len(outcomes[0].reports) if outcomes else 0,
        wall_s=wall_s,
        setup_s_per_shard=tuple(outcome.setup_s for outcome in outcomes),
        dispatch_s_per_shard=tuple(outcome.dispatch_s for outcome in outcomes),
        events_per_shard=tuple(outcome.events_fired for outcome in outcomes),
        queries_per_shard=tuple(outcome.num_queries for outcome in outcomes),
    )
    return result, stats


def map_tasks_shards(
    tasks: Sequence[ShardTask], jobs: Optional[int] = None
) -> List[ShardOutcome]:
    """Fan the shard tasks over the shared scenario worker pool."""
    from repro.scenarios.parallel import map_tasks

    return map_tasks(_run_shard, tasks, jobs=jobs)
