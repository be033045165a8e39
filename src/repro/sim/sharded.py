"""One flower at a time: website-blocked execution of Flower-CDN scenarios.

A separable run (see :func:`repro.core.sharding.inseparable_reason`) is cut
into *blocks* — one queryable website's flower each, see
:func:`repro.core.sharding.plan_blocks` for why the cut makes the
cross-block message channel empty.  The environment (topology, catalogue,
resolved trace, the static bootstrap D-ring) is built once; the trace is
partitioned by website in one pass; then each block is a complete
:class:`~repro.sim.engine.Simulator` + :class:`~repro.core.system.FlowerCDN`
that answers its own rows of the trace to the horizon, leaves what it
produced in a :class:`BlockTally` and is dropped before the next one is
built.  The live state of a run is therefore one flower, not all of them —
which is what keeps a paper-scale run inside the cache and the collector's
full passes short.

``shards=N`` only *places* the same blocks over ``N`` worker processes
(:func:`repro.scenarios.parallel.map_tasks`), each running its blocks one at
a time with the same block runner; forked workers inherit the parent's
environment instead of rebuilding it.

Merging is one fold in trace order: every block writes its outcome rows into
:class:`~repro.metrics.collectors.OutcomeColumns` at its queries' trace
positions, and a single collector records trace and outcomes side by side
(:meth:`~repro.metrics.collectors.MetricsCollector.record_trace`) — the very
rows, in the very order, of the monolithic run, so ``result.json`` and
``digest.json`` are byte-identical to it whatever the block plan, the
placement or the metrics mode.  Bandwidth, delivery-gate and resilience
blocks merge by the rules in their classes (exact sums, min-first-seen, then
a recompute of the resilience summary over the merged series).
"""

from __future__ import annotations

# Wall-clock reads below are perf accounting only (ShardRunStats); they
# never feed simulated time or draws, hence the DET002 suppressions.
import time as _time
from array import array
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

if TYPE_CHECKING:
    from repro.scenarios.spec import ScenarioSpec

from repro.core.sharding import conservative_lookahead_s, plan_blocks, window_boundaries
from repro.core.system import OverlayStats
from repro.experiments.driver import ExperimentRunner, RunResult, flatten_injectors
from repro.metrics.collectors import BandwidthAccountant, MetricsCollector, OutcomeColumns
from repro.metrics.resilience import summarise_resilience
from repro.network.reachability import DeliveryStats
from repro.scenarios.models import build_churn_model, build_fault_model


@dataclass(frozen=True)
class ShardRunStats:
    """Coordinator-side accounting of one placed run (perf reporting).

    One entry per worker process — a *shard* of the block list — in every
    per-shard tuple.
    """

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


@dataclass
class BlockTally:
    """What finished blocks leave behind: of one block, of one process's
    blocks, of the whole run — which is the run's *census*
    (:attr:`ExperimentRunner.last_flower_system`): it answers for every
    flower of the deployment and holds no peer of any.
    """

    bandwidth: BandwidthAccountant
    delivery_stats: Optional[DeliveryStats] = None
    #: episodes of the metric-emitting fault model (a pure function of the
    #: clock, identical in every block); None: no resilience block
    fault_windows: Optional[Tuple[Tuple[float, float], ...]] = None
    num_content_peers: int = 0
    num_directory_peers: int = 0
    overlays: List[OverlayStats] = field(default_factory=list)
    events_fired: int = 0
    num_queries: int = 0
    dispatch_s: float = 0.0
    #: per block, what it cost beyond its own ``sim.run``: build, bootstrap,
    #: attach, gathering its query times, tearing its state down
    fixed_s: List[float] = field(default_factory=list)

    def absorb(self, other: "BlockTally") -> None:
        self.bandwidth.merge_from(other.bandwidth)
        if other.delivery_stats is not None:
            if self.delivery_stats is None:
                self.delivery_stats = DeliveryStats()
            self.delivery_stats.merge_from(other.delivery_stats)
        if other.fault_windows is not None:
            self.fault_windows = other.fault_windows
        self.num_content_peers += other.num_content_peers
        self.num_directory_peers += other.num_directory_peers
        self.overlays += other.overlays
        self.events_fired += other.events_fired
        self.num_queries += other.num_queries
        self.dispatch_s += other.dispatch_s
        self.fixed_s += other.fixed_s

    def active_overlays(self) -> List[OverlayStats]:
        return sorted(self.overlays, key=lambda stats: (stats.website, stats.locality))


class BlockedRun:
    """One separable flower run, cut into blocks over its shared environment."""

    def __init__(self, runner: ExperimentRunner, spec: "ScenarioSpec") -> None:
        self.runner = runner
        self.spec = spec
        self.models = (build_churn_model(spec.churn_model), build_fault_model(spec.fault_model))
        self.blocks = plan_blocks(spec)
        self.lookahead_s = conservative_lookahead_s(spec)
        self.boundaries = window_boundaries(spec.duration_s, self.lookahead_s)
        # The one pass that partitions the trace: each block's row positions.
        trace = runner.resolved_trace()
        block_of_name = {name: index for index, block in enumerate(self.blocks) for name in block}
        block_of = [block_of_name[website.name] for website in trace.websites]
        self.positions = [array("I") for _ in self.blocks]
        appends = [positions.append for positions in self.positions]
        for position, website in enumerate(trace.website_index):
            appends[block_of[website]](position)
        runner.block_ring()  # placed before any fork: workers inherit it with the rest

    def run_block(self, index: int, rows: OutcomeColumns, slots: Sequence[int]) -> BlockTally:
        """Simulate block ``index`` to the horizon, writing its outcome rows
        into ``rows`` at ``slots``; the block's system is dropped on return."""
        trace, positions = self.runner.resolved_trace(), self.positions[index]
        sim, system = self.runner.build_flower(owned_websites=frozenset(self.blocks[index]))
        placements = system.dring.placements()
        rows.begin_block(slots)
        # In place of the system's own collector: the run has one, at the fold.
        system.metrics = rows  # type: ignore[assignment]
        # The spec's churn/fault models attach exactly as they do to the
        # monolithic system (inseparable_reason() has established that doing
        # so block by block reproduces the union run); what they inject lives
        # and dies with the block, on no session's record.
        injectors = flatten_injectors(model.attach(system, self.spec) for model in self.models)
        for injector in injectors:
            injector.start()
        sim.schedule_trace(
            map(trace.times.__getitem__, positions),  # (the engine packs them)
            trace.replayer(system.process_query, positions),
            label="query",
        )
        dispatch_started = _time.perf_counter()  # repro: allow(DET002)
        for boundary in self.boundaries:
            sim.run(until=boundary)
        dispatch_s = _time.perf_counter() - dispatch_started  # repro: allow(DET002)
        for injector in reversed(injectors):
            injector.stop()
        system.shutdown()
        sim.discard_pending()
        # The host pairs a flower asks about are its own peers': its share of
        # the latency memo goes with it.
        self.runner.topology.drop_latency_memo()
        if system.dring.placements() != placements:
            raise RuntimeError(
                f"block {self.blocks[index][0]!r} moved the shared D-ring: a spec whose "
                "directories fail or are replaced must run monolithically"
            )
        return BlockTally(
            bandwidth=system.bandwidth,
            delivery_stats=system.delivery_stats,
            fault_windows=system.resilience_windows(),
            num_content_peers=system.num_content_peers,
            num_directory_peers=system.num_directory_peers,
            overlays=system.active_overlays(),
            events_fired=sim.events_fired,
            num_queries=len(positions),
            dispatch_s=dispatch_s,
        )

    def run_placement(
        self, indices: Sequence[int], whole_run: bool
    ) -> Tuple[BlockTally, OutcomeColumns]:
        """Run the blocks one process was dealt, one at a time.

        When that is the ``whole_run``, rows land at their trace positions
        directly; a worker among several packs its rows in block order — it
        sends back no more than it produced — and :meth:`fold` puts them in
        place.
        """
        size = sum(len(self.positions[index]) for index in indices)
        if whole_run:
            size = len(self.runner.resolved_trace())
        rows = OutcomeColumns(size, keep_providers=not self.spec.compact_metrics)
        tally = BlockTally(BandwidthAccountant(window_s=self.spec.effective_metrics_window_s))
        packed = 0
        for index in indices:
            positions = self.positions[index]
            slots = positions if whole_run else range(packed, packed + len(positions))
            packed += len(positions)
            started = _time.perf_counter()  # repro: allow(DET002)
            block = self.run_block(index, rows, slots)  # (its system dies with the call)
            elapsed = _time.perf_counter() - started  # repro: allow(DET002)
            block.fixed_s.append(elapsed - block.dispatch_s)
            tally.absorb(block)
        rows.begin_block(())  # (or the last block's positions travel with the rows)
        return tally, rows

    def fold(
        self,
        placements: Sequence[Sequence[int]],
        outcomes: Sequence[Tuple[BlockTally, OutcomeColumns]],
    ) -> Tuple[RunResult, BlockTally]:
        """The one fold: every process's tally into one, all rows into one
        collector in trace order."""
        spec, trace = self.spec, self.runner.resolved_trace()
        census, rows = outcomes[0]
        if len(outcomes) > 1:
            rows = OutcomeColumns(len(trace), keep_providers=not spec.compact_metrics)
            for indices, (tally, packed) in zip(placements, outcomes):
                positions = array("I")
                for index in indices:
                    positions.extend(self.positions[index])
                rows.adopt(packed, positions)
                if tally is not census:
                    census.absorb(tally)
        metrics = MetricsCollector(
            window_s=spec.effective_metrics_window_s, retain_records=not spec.compact_metrics
        )
        metrics.record_trace(
            [website.name for website in trace.websites],
            trace.query_id, trace.times, trace.website_index, trace.locality, rows,
        )
        resilience = None
        if census.fault_windows is not None:
            resilience = summarise_resilience(
                metrics.hit_ratio_series, census.fault_windows, spec.duration_s,
                census.delivery_stats,
            )
        result = RunResult.from_metrics(
            "Flower-CDN",
            spec.duration_s,
            metrics,
            census.events_fired,  # diagnostics, not a digest metric: summed over the blocks
            bandwidth=census.bandwidth,
            resilience=resilience,
        )
        return result, census


#: the run whose placements a worker pool is executing: set only while the
#: pool exists, so forked workers inherit it (environment included)
_placed_run: Optional[BlockedRun] = None


def _run_placement(
    task: Tuple["ScenarioSpec", int, Tuple[int, ...]]
) -> Tuple[BlockTally, OutcomeColumns]:
    spec, seed, indices = task
    run = _placed_run
    if run is None:
        # A spawned worker inherits nothing: rebuild the run from the request.
        run = BlockedRun(ExperimentRunner(spec.to_setup(seed=seed)), spec)
    return run.run_placement(indices, whole_run=False)


def run_blocked_flower(
    runner: ExperimentRunner,
    spec: "ScenarioSpec",
    shards: int = 1,
    jobs: Optional[int] = None,
) -> Tuple[RunResult, Optional[ShardRunStats]]:
    """Run a separable flower scenario block by block over ``runner``'s environment.

    ``shards`` places the blocks over that many worker processes (``jobs``
    sizes the pool: ``None`` is the CPU-affinity default, ``1`` runs every
    placement inline in this process — same results, handy for tests and
    debugging) and comes with :class:`ShardRunStats`; one shard is this
    process, with no stats.  Leaves the run's census in
    ``runner.last_flower_system``.
    """
    global _placed_run
    run = BlockedRun(runner, spec)
    placements = [tuple(range(shard, len(run.blocks), shards)) for shard in range(shards)]
    stats: Optional[ShardRunStats] = None
    if shards == 1:
        outcomes = [run.run_placement(placements[0], whole_run=True)]
    else:
        from repro.scenarios.parallel import map_tasks

        wall_started = _time.perf_counter()  # repro: allow(DET002)
        _placed_run = run
        try:
            tasks = [(spec, runner.setup.seed, indices) for indices in placements]
            outcomes = map_tasks(_run_placement, tasks, jobs=jobs)
        finally:
            _placed_run = None
        tallies = [tally for tally, _rows in outcomes]
        stats = ShardRunStats(
            num_shards=shards,
            lookahead_s=run.lookahead_s,
            num_windows=len(run.boundaries),
            wall_s=_time.perf_counter() - wall_started,  # repro: allow(DET002)
            setup_s_per_shard=tuple(sum(tally.fixed_s) for tally in tallies),
            dispatch_s_per_shard=tuple(tally.dispatch_s for tally in tallies),
            events_per_shard=tuple(tally.events_fired for tally in tallies),
            queries_per_shard=tuple(tally.num_queries for tally in tallies),
        )
    result, runner._flower_system = run.fold(placements, outcomes)
    return result, stats
