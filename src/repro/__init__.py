"""Reproduction of *Flower-CDN: A hybrid P2P overlay for Efficient Query
Processing in CDN* (El Dick, Pacitti, Kemme — EDBT 2009).

The package is organised bottom-up:

* :mod:`repro.sim` — discrete-event simulation engine (PeerSim substitute);
* :mod:`repro.network` — latency topology, localities and message delivery;
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

    from repro import ChurnProfile, ScenarioSpec, Session

    result = Session.from_name("paper-default").run()
    print(result.flower.metrics["hit_ratio"])

    # an ad-hoc spec: Flower-CDN and Squirrel on one trace, or Flower-CDN under churn
    spec = ScenarioSpec(name="adhoc", duration_s=1800, systems=("flower", "squirrel"))
    pair = Session.from_spec(spec).run()
    print(pair.flower.series["hit_ratio_cumulative"], pair.squirrel.metrics["hit_ratio"])
    churned = ScenarioSpec(name="churned", churn=ChurnProfile(content_failures_per_hour=20.0))
    session = Session.from_spec(churned)
    print(session.run_system("flower").hit_ratio, session.last_injectors[0].events_injected)
"""

from repro.core.config import FlowerConfig, GossipConfig
from repro.core.system import FlowerCDN
from repro.core.churn import ChurnInjector
from repro.baselines.squirrel import Squirrel
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
from repro.workload.generator import QueryGenerator, WorkloadConfig

__version__ = "1.0.0"

__all__ = [
    "FlowerConfig",
    "GossipConfig",
    "FlowerCDN",
    "ChurnInjector",
    "Squirrel",
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
    "QueryGenerator",
    "WorkloadConfig",
    "__version__",
]
