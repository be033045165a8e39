"""Shared experiment driver.

An :class:`ExperimentSetup` bundles everything one simulated run needs:
Flower-CDN configuration, topology parameters and workload parameters.  The
:class:`ExperimentRunner` builds the environment once (topology + query trace
+ client assignment) under a :class:`~repro.session.Session`, which runs
Flower-CDN (through :func:`repro.sim.sharded.run_blocks`) and Squirrel
against the *same* resolved query stream, as the comparative figures require.

Setups are compiled from a declarative
:class:`~repro.scenarios.spec.ScenarioSpec` (``spec.to_setup()``): the
registered ``paper-default-full-scale`` scenario is the Table 1 configuration
(24 simulated hours, 6 queries/s, 100 websites), ``paper-default`` keeps its
parameter ratios at a scale that runs in seconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.baselines.squirrel import Squirrel
from repro.core.config import FlowerConfig
from repro.core.system import FlowerCDN, directory_hosts
from repro.metrics.collectors import BandwidthAccountant, MetricsCollector, OutcomeColumns
from repro.network.latency import LatencyModel
from repro.network.topology import Topology, TopologyConfig
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.workload.assignment import ClientAssigner
from repro.workload.catalog import Catalog
from repro.workload.generator import QueryGenerator, WorkloadConfig
from repro.workload.phases import PhaseSpan
from repro.workload.trace import ResolvedTraceArrays


@dataclass(frozen=True)
class ExperimentSetup:
    """Everything needed to build one simulated environment."""

    flower: FlowerConfig
    topology: TopologyConfig
    workload: WorkloadConfig
    seed: int = 42
    #: event-queue backend for the simulators ("heap" or "calendar"); both
    #: produce byte-identical runs
    queue_backend: str = "heap"
    #: when True the metric collectors fold records into array reservoirs
    #: instead of retaining per-query objects (paper-scale memory mode)
    compact_metrics: bool = False
    #: compiled workload phases of a scenario program (empty: one stationary
    #: phase over the whole run — the historical behaviour)
    phases: Tuple[PhaseSpan, ...] = ()


@dataclass
class RunResult:
    """Aggregated outcome of one system run."""

    system_name: str
    duration_s: float
    num_queries: int
    hit_ratio: float
    average_lookup_latency_ms: float
    average_transfer_distance_ms: float
    background_bps_per_peer: float
    redirection_failures: int
    metrics: MetricsCollector
    bandwidth: Optional[BandwidthAccountant] = None
    #: events dispatched by the simulator during this run (perf accounting)
    events_fired: int = 0
    #: resilience_* metric block of a run with a metric-emitting reachability
    #: model attached; None otherwise (see repro.metrics.resilience)
    resilience: Optional[dict] = None

    @classmethod
    def from_metrics(
        cls,
        system_name: str,
        duration_s: float,
        metrics: MetricsCollector,
        events_fired: int,
        bandwidth: Optional[BandwidthAccountant] = None,
        resilience: Optional[dict] = None,
    ) -> "RunResult":
        """The headline aggregates read off a finished run's collectors."""
        return cls(
            system_name=system_name,
            duration_s=duration_s,
            num_queries=metrics.num_queries,
            hit_ratio=metrics.hit_ratio,
            average_lookup_latency_ms=metrics.average_lookup_latency_ms,
            average_transfer_distance_ms=metrics.average_transfer_distance_ms,
            background_bps_per_peer=(
                0.0 if bandwidth is None else bandwidth.average_bps_per_peer(duration_s)
            ),
            redirection_failures=metrics.redirection_failures,
            metrics=metrics,
            bandwidth=bandwidth,
            events_fired=events_fired,
            resilience=resilience,
        )


def flatten_injectors(attached) -> list:
    """What model attachments return — an injector, a list of them, or ``None``
    for "nothing to inject" — as one flat list of ``start()``/``stop()`` objects."""
    injectors = []
    for item in attached:
        if item is not None:
            injectors.extend([item] if hasattr(item, "start") else item)
    return injectors


class ExperimentRunner:
    """Builds one environment and runs CDN systems against the same workload."""

    def __init__(self, setup: ExperimentSetup) -> None:
        self.setup = setup
        self._topology: Optional[Topology] = None
        self._trace: Optional[ResolvedTraceArrays] = None
        self._catalog: Optional[Catalog] = None
        #: the system of the most recent flower run: the FlowerCDN itself after
        #: a whole-catalogue block (a model that is not website-separable,
        #: ``run_blocks(runner)`` without a plan); after a run cut into blocks
        #: (repro.sim.sharded) a census of the whole run that holds no peer
        #: (num_content_peers, num_directory_peers, active_overlays())
        self.last_flower_system: Optional[object] = None
        #: what that run's attachments built, while its system is kept; empty
        #: after a run cut into blocks — a block's injectors go with the block
        self.last_injectors: list = []
        self._ring_system: Optional[FlowerCDN] = None

    # -- environment construction ---------------------------------------------------

    @property
    def topology(self) -> Topology:
        if self._topology is None:
            self._topology = Topology(
                self.setup.topology, RandomStreams(self.setup.seed)
            )
        return self._topology

    @property
    def catalog(self) -> Catalog:
        if self._catalog is None:
            self._catalog = Catalog.synthetic(
                self.setup.workload.num_websites, self.setup.workload.objects_per_website
            )
        return self._catalog

    def _new_simulator(self) -> Simulator:
        return Simulator(
            seed=self.setup.seed,
            end_time=self.setup.flower.simulation_duration_s,
            queue_backend=self.setup.queue_backend,
        )

    def block_ring(self) -> FlowerCDN:
        """The deployment's bootstrap D-ring, placed once by a system that
        owns no website; every block shares its ring (and starts from its peer
        registrations) read-only — the ring is static while no directory fails."""
        if self._ring_system is None:
            self._ring_system = self.build_flower(frozenset())[1]
        return self._ring_system

    def build_flower(
        self, owned_websites: Optional[frozenset] = None
    ) -> tuple[Simulator, FlowerCDN]:
        """Construct a bootstrapped Flower-CDN system plus its simulator.

        Every flower of a run is built here — one per block of the run's plan
        (:mod:`repro.sim.sharded`).  ``None`` is the whole catalogue, on a
        D-ring of its own; ``owned_websites`` builds one block of a catalogue
        cut by website: a system that staffs only those websites'
        directories, on the shared :meth:`block_ring`.
        """
        ring = self.block_ring() if owned_websites else None
        sim = self._new_simulator()
        system = FlowerCDN(
            self.setup.flower,
            sim,
            self.topology,
            latency_model=LatencyModel(self.topology) if ring is None else ring.latency.fork(),
            catalog=self.catalog,
            owned_websites=owned_websites,
            dring=None if ring is None else ring.dring,
        )
        system.bootstrap()
        return sim, system

    def resolved_trace(self) -> ResolvedTraceArrays:
        """The query trace with concrete originating hosts, as array columns.

        Built once and shared by every system run (the comparative figures
        require both systems to process the same stream) and replayed
        straight from the columns (each system's ``trace_replay``, whose
        rows :meth:`fold_outcomes` records), so a paper-scale trace costs
        ~30 bytes per query resident and no per-query object at all.
        """
        if self._trace is not None:
            return self._trace
        # Directory-peer hosts are excluded from client assignment so the same
        # trace is valid for both Flower-CDN (where those hosts are reserved)
        # and Squirrel (where they simply never ask anything).
        reserved = {
            host
            for hosts in directory_hosts(
                self.topology, len(self.catalog), self.setup.flower.num_localities
            )
            for host in hosts
        }
        generator = QueryGenerator(
            self.setup.workload, RandomStreams(self.setup.seed + 1), catalog=self.catalog
        )
        assigner = ClientAssigner(
            self.topology,
            RandomStreams(self.setup.seed + 2),
            max_clients_per_overlay=self.setup.flower.max_content_overlay_size,
            reserved_hosts=reserved,
        )
        duration = self.setup.flower.simulation_duration_s
        self._trace = assigner.assign_trace(
            generator.generate_trace(duration, phases=self.setup.phases)
        )
        return self._trace

    # -- runs -------------------------------------------------------------------------

    def run_squirrel(self) -> RunResult:
        """Run the Squirrel baseline over the same trace."""
        trace = self.resolved_trace()  # built before the live system exists
        sim = self._new_simulator()
        system = Squirrel(sim, self.topology, latency_model=LatencyModel(self.topology))
        system.bootstrap()
        rows = OutcomeColumns(len(trace), keep_providers=not self.setup.compact_metrics)
        sim.schedule_trace(trace.times, system.trace_replay(trace, rows), label="query")
        duration = self.setup.flower.simulation_duration_s
        sim.run(until=duration)
        sim.discard_pending()
        metrics = self.fold_outcomes(rows, self.setup.flower.metrics_window_s)
        return RunResult.from_metrics("Squirrel", duration, metrics, sim.events_fired)

    def fold_outcomes(self, rows: OutcomeColumns, window_s: float) -> MetricsCollector:
        """A run's collector: the trace's query columns beside the outcome
        columns its replay filled, recorded in one fold — the only way a
        system's rows reach the metrics, Flower-CDN's blocks and Squirrel
        alike, since no system owns a collector."""
        trace = self.resolved_trace()
        metrics = MetricsCollector(
            window_s=window_s, retain_records=not self.setup.compact_metrics
        )
        metrics.record_trace(
            [website.name for website in trace.websites],
            trace.query_id, trace.times, trace.website_index, trace.locality, rows,
        )
        return metrics
