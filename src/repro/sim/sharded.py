"""The one Flower-CDN run loop: a plan of blocks, one flower at a time.

Every Flower-CDN run goes through :func:`run_blocks` with a *plan*.  A
separable spec (:func:`repro.core.sharding.inseparable_reason`) is cut into
*blocks* — one queryable website's flower each,
:func:`repro.core.sharding.plan_blocks`.  The environment (topology,
catalogue, resolved trace, the static bootstrap D-ring) is built once; the
trace is partitioned by website in one pass; then each block is a complete
:class:`~repro.sim.engine.Simulator` + :class:`~repro.core.system.FlowerCDN`
that answers its own rows of the trace to the horizon, leaves what it
produced in a :class:`BlockTally` and is dropped before the next one is
built.  The live state of a run is therefore one flower, not all of them —
which is what keeps a paper-scale run inside the cache and the collector's
full passes short.  Everything else — a model that draws from
globally-ordered streams, a caller with attachments no spec can name — is
the plan of **one whole-catalogue block** (``plan=None``): the same build,
attach, replay, stop, shut down, on a D-ring of the block's own over every
row of the trace; being the whole run, its system and injectors are kept for
inspection.

``shards=N`` only *places* the blocks of a cut plan over ``N`` worker
processes (:func:`repro.scenarios.parallel.map_tasks`; never more than there
are blocks), each running its blocks one at a time with the same block
runner; forked workers inherit the parent's environment instead of
rebuilding it.

Merging is one fold in trace order: every block writes its outcome rows into
:class:`~repro.metrics.collectors.OutcomeColumns` at its queries' trace
positions, and a single collector records trace and outcomes side by side
(:meth:`~repro.metrics.collectors.MetricsCollector.record_trace`) — the very
rows, in the very order, whatever the plan, so ``result.json`` and
``digest.json`` are byte-identical whatever the block plan, the placement or
the metrics mode.  Bandwidth, delivery-gate and resilience blocks merge by
the rules in their classes (exact sums, then one resilience summary over
the folded series).
"""

from __future__ import annotations

# Wall-clock reads below are perf accounting only (ShardRunStats); they
# never feed simulated time or draws, hence the DET002 suppressions.
import time as _time
from array import array
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple

if TYPE_CHECKING:
    from repro.scenarios.spec import ScenarioSpec

from repro.core.system import OverlayStats
from repro.experiments.driver import ExperimentRunner, RunResult, flatten_injectors
from repro.metrics.collectors import BandwidthAccountant, OutcomeColumns
from repro.metrics.resilience import summarise_resilience
from repro.network.reachability import DeliveryStats
from repro.scenarios.models import build_churn_model, build_fault_model

#: a run's plan: the blocks of website names its catalogue is cut into (None: one block)
Plan = Optional[Sequence[Sequence[str]]]


@dataclass(frozen=True)
class ShardRunStats:
    """Coordinator-side accounting of one placed run (perf reporting).

    One entry per worker process — a *shard* of the block list, never an
    empty one, so never more than there are blocks — in every per-shard tuple.
    """

    #: ``sim.run`` calls a block makes (``benchmarks/e2e`` still reads it)
    num_windows = 1
    num_shards: int
    wall_s: float
    setup_s_per_shard: Tuple[float, ...]
    dispatch_s_per_shard: Tuple[float, ...]
    events_per_shard: Tuple[int, ...]
    queries_per_shard: Tuple[int, ...]

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
    """One flower run as the blocks of its plan, over one shared environment."""

    def __init__(
        self, runner: ExperimentRunner, plan: Plan, attachments: Sequence[Callable] = ()
    ) -> None:
        self.runner = runner
        self.attachments = attachments
        #: the whole-catalogue block's ``(system, injectors)``, once it has run
        self.kept: Optional[Tuple[object, list]] = None
        trace = runner.resolved_trace()
        if plan is None:
            self.blocks: Sequence[Optional[Sequence[str]]] = (None,)
            self.positions: List[Sequence[int]] = [range(len(trace))]
            return
        self.blocks = plan
        # The one pass that partitions the trace: each block's row positions.
        block_of_name = {name: index for index, block in enumerate(plan) for name in block}
        block_of = [block_of_name[website.name] for website in trace.websites]
        self.positions = [array("I") for _ in plan]
        appends = [positions.append for positions in self.positions]
        for position, website in enumerate(trace.website_index):
            appends[block_of[website]](position)
        runner.block_ring()  # placed before any fork: workers inherit it with the rest

    def run_block(self, index: int, rows: OutcomeColumns, slots: Sequence[int]) -> BlockTally:
        """Simulate block ``index`` to the horizon, writing its outcome rows
        into ``rows`` at ``slots`` — the one place a Flower system runs over a
        trace.  The system is dropped on return, the whole catalogue's :attr:`kept`."""
        trace, block = self.runner.resolved_trace(), self.blocks[index]
        whole = block is None
        positions = self.positions[index]
        sim, system = self.runner.build_flower(None if whole else frozenset(block))
        ring = system.dring.placements()
        # What is attached to a cut block lives and dies with it (that doing
        # so block by block reproduces the one-block run is inseparable_reason()'s).
        injectors = flatten_injectors(attach(system) for attach in self.attachments)
        for injector in injectors:
            injector.start()
        sim.schedule_trace(
            # (the engine packs a block's times; the whole trace's are used as is)
            trace.times if whole else map(trace.times.__getitem__, positions),
            system.trace_replay(trace, positions, rows, slots),
            label="query",
        )
        dispatch_started = _time.perf_counter()  # repro: allow(DET002)
        sim.run(until=self.runner.setup.flower.simulation_duration_s)
        dispatch_s = _time.perf_counter() - dispatch_started  # repro: allow(DET002)
        for injector in reversed(injectors):
            injector.stop()
        # Drop the background processes and whatever lies past the horizon:
        # without its reference cycles with the simulator the system is freed
        # by reference counting, not by some later full GC pass.
        system.shutdown()
        sim.discard_pending()
        if whole:
            self.kept = system, injectors
        else:
            # The host pairs a flower asks about are its own peers': its share
            # of the latency memo goes with it.
            self.runner.topology.drop_latency_memo()
            if system.dring.placements() != ring:
                raise RuntimeError(
                    f"block {block[0]!r} moved the shared D-ring: a spec whose "
                    "directories fail or are replaced must run as one whole-catalogue block"
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
        setup = self.runner.setup
        rows = OutcomeColumns(size, keep_providers=not setup.compact_metrics)
        tally = BlockTally(BandwidthAccountant(window_s=setup.flower.metrics_window_s))
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
        return tally, rows

    def fold(
        self,
        placements: Optional[Sequence[Sequence[int]]],
        outcomes: Sequence[Tuple[BlockTally, OutcomeColumns]],
    ) -> Tuple[RunResult, BlockTally]:
        """The one fold: every process's tally into one, all rows into one
        collector in trace order.  ``placements`` is ``None`` for the one
        outcome of a whole run, whose rows already sit at their positions."""
        setup, trace = self.runner.setup, self.runner.resolved_trace()
        duration = setup.flower.simulation_duration_s
        census, rows = outcomes[0]
        if placements is not None:
            rows = OutcomeColumns(len(trace), keep_providers=not setup.compact_metrics)
            for indices, (tally, packed) in zip(placements, outcomes):
                positions = array("I")
                for index in indices:
                    positions.extend(self.positions[index])
                rows.adopt(packed, positions)
                if tally is not census:
                    census.absorb(tally)
        metrics = self.runner.fold_outcomes(rows, setup.flower.metrics_window_s)
        resilience = None
        if census.fault_windows is not None:
            resilience = summarise_resilience(
                metrics.hit_ratio_series, census.fault_windows, duration, census.delivery_stats
            )
        result = RunResult.from_metrics(
            "Flower-CDN",
            duration,
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
    task: Tuple["ScenarioSpec", int, Plan, Tuple[int, ...]]
) -> Tuple[BlockTally, OutcomeColumns]:
    spec, seed, plan, indices = task
    run = _placed_run
    if run is None:
        # A spawned worker inherits nothing: rebuild the run from the request.
        models = (build_churn_model(spec.churn_model), build_fault_model(spec.fault_model))
        attachments = [partial(model.attach, spec=spec) for model in models]
        run = BlockedRun(ExperimentRunner(spec.to_setup(seed=seed)), plan, attachments)
    return run.run_placement(indices, whole_run=False)


def run_blocks(
    runner: ExperimentRunner,
    plan: Plan = None,
    attachments: Sequence[Callable] = (),
    shards: int = 1,
    jobs: Optional[int] = None,
    spec: Optional["ScenarioSpec"] = None,
) -> Tuple[RunResult, Optional[ShardRunStats]]:
    """Run Flower-CDN over ``runner``'s environment, block by block of ``plan``
    — the only way a Flower run executes.

    ``attachments`` are called on every block's freshly built system and
    return an injector with ``start()``/``stop()``, a list of them, or
    ``None``: the spec's models (:meth:`repro.session.Session.attach_models`),
    a ``ChurnInjector``, an ``ActiveReplicator``.  ``shards`` places the blocks over
    that many worker processes (``jobs`` sizes the pool: ``None`` is the
    CPU-affinity default, ``1`` runs every placement inline in this process —
    same results, handy for tests and debugging) and comes with
    :class:`ShardRunStats`; one shard is this process, with no stats.  A
    placed run needs the ``spec`` whose models ``attachments`` attach: a
    worker that inherits nothing rebuilds the run from it.  Leaves the kept
    system and injectors, or else the run's census and no injector, in
    ``runner.last_flower_system`` / ``last_injectors``.
    """
    global _placed_run
    run = BlockedRun(runner, plan, attachments)
    placements: Optional[List[Tuple[int, ...]]] = None
    stats: Optional[ShardRunStats] = None
    if shards == 1:
        outcomes = [run.run_placement(range(len(run.blocks)), whole_run=True)]
    else:
        from repro.scenarios.parallel import map_tasks

        # A placement past the last block would hold no work: none is built.
        count = min(shards, len(run.blocks))
        placements = [tuple(range(shard, len(run.blocks), count)) for shard in range(count)]

        wall_started = _time.perf_counter()  # repro: allow(DET002)
        _placed_run = run
        try:
            tasks = [(spec, runner.setup.seed, plan, indices) for indices in placements]
            outcomes = map_tasks(_run_placement, tasks, jobs=jobs)
        finally:
            _placed_run = None
        tallies = [tally for tally, _rows in outcomes]
        stats = ShardRunStats(
            num_shards=count,
            wall_s=_time.perf_counter() - wall_started,  # repro: allow(DET002)
            setup_s_per_shard=tuple(sum(tally.fixed_s) for tally in tallies),
            dispatch_s_per_shard=tuple(tally.dispatch_s for tally in tallies),
            events_per_shard=tuple(tally.events_fired for tally in tallies),
            queries_per_shard=tuple(tally.num_queries for tally in tallies),
        )
    result, census = run.fold(placements, outcomes)
    runner.last_flower_system, runner.last_injectors = run.kept or (census, [])
    return result, stats
