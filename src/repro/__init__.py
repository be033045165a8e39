"""Reproduction of *Flower-CDN: A hybrid P2P overlay for Efficient Query
Processing in CDN* (El Dick, Pacitti, Kemme — EDBT 2009).

The package is organised bottom-up:

* :mod:`repro.sim` — discrete-event simulation engine (PeerSim substitute);
* :mod:`repro.network` — latency topology and landmark-based localities;
* :mod:`repro.datastructures` — Bloom filters, aged views, LRU caches;
* :mod:`repro.overlay` — Chord DHT substrate and key-based routing;
* :mod:`repro.workload` — synthetic Zipf query workload and traces;
* :mod:`repro.core` — Flower-CDN itself (D-ring, directory peers, content
  overlays, gossip, churn handling);
* :mod:`repro.baselines` — the Squirrel comparison system;
* :mod:`repro.metrics` — hit ratio, lookup latency, transfer distance and
  background-traffic collectors;
* :mod:`repro.experiments` — the harness regenerating every table and figure;
* :mod:`repro.scenarios` — declarative named scenarios, the deterministic
  scenario runner and the golden-metrics regression facility;
* :mod:`repro.sweeps` — declarative parameter sweeps over the scenario
  library (grids, parallel cell execution, sweep goldens, artifacts).

Quickstart (the :class:`~repro.session.Session` facade is the public entry
point; see ``docs/api.md``)::

    from repro import Session

    result = Session.from_name("paper-default").run()
    print(result.flower.metrics["hit_ratio"])

The lower layers remain available for harnesses that need them — the same
run loop, entered without a spec (one whole-catalogue block; churn or any
other injector is an attachment)::

    from repro import ChurnConfig, ChurnInjector, ExperimentRunner, ScenarioSpec

    spec = ScenarioSpec(name="adhoc", duration_s=1800, query_rate_per_s=1.0)
    runner = ExperimentRunner(spec.to_setup())
    churn = ChurnConfig(content_failures_per_hour=20.0)
    result = runner.run_flower(attachments=(lambda system: ChurnInjector(system, churn),))
    print(result.hit_ratio, runner.last_injectors[0].events_injected)
"""

from repro.core.config import FlowerConfig, GossipConfig, MessageSizeModel
from repro.core.system import FlowerCDN
from repro.core.churn import ChurnConfig, ChurnInjector
from repro.baselines.squirrel import Squirrel, SquirrelConfig, SquirrelStrategy
from repro.experiments.driver import ExperimentRunner, ExperimentSetup, RunResult
from repro.metrics.collectors import MetricsCollector, QueryOutcome, QueryRecord
from repro.network.topology import Topology, TopologyConfig
from repro.scenarios import (
    ChurnProfile,
    ModelRef,
    ScenarioResult,
    ScenarioSpec,
    WorkloadPhase,
    get_scenario,
    run_scenario,
    scenario_names,
)
from repro.session import Session
from repro.sim.engine import Simulator
from repro.workload.generator import Query, QueryGenerator, WorkloadConfig

__version__ = "1.0.0"

__all__ = [
    "FlowerConfig",
    "GossipConfig",
    "MessageSizeModel",
    "FlowerCDN",
    "ChurnConfig",
    "ChurnInjector",
    "Squirrel",
    "SquirrelConfig",
    "SquirrelStrategy",
    "ExperimentRunner",
    "ExperimentSetup",
    "RunResult",
    "MetricsCollector",
    "QueryOutcome",
    "QueryRecord",
    "Topology",
    "TopologyConfig",
    "ChurnProfile",
    "ModelRef",
    "ScenarioSpec",
    "ScenarioResult",
    "WorkloadPhase",
    "Session",
    "get_scenario",
    "run_scenario",
    "scenario_names",
    "Simulator",
    "Query",
    "QueryGenerator",
    "WorkloadConfig",
    "__version__",
]
