"""The unified :class:`Session` facade: one public entry point per run.

Historically every consumer of the simulation re-assembled the
``ScenarioSpec → ExperimentSetup → ExperimentRunner`` chain by hand — the
CLI, the scenario runner and the parallel runner each knew how to build
topology, catalogue and trace, and each had its own churn wiring.  A
:class:`Session` collapses that chain behind one facade::

    from repro.session import Session

    result = Session.from_name("paper-default").run()        # ScenarioResult
    result = Session.from_spec(my_spec, seed=7).run()
    run    = Session.from_spec(my_spec).run_system("flower")  # one RunResult

A session owns:

* the **environment** (topology, catalogue, resolved query trace — built
  once and shared by every system the spec names, via the underlying
  :class:`~repro.experiments.driver.ExperimentRunner`);
* the **dynamicity models** — the spec's pluggable churn and fault models
  (:mod:`repro.scenarios.models`), resolved from their registries and
  attached to each Flower-CDN run;
* the **summarisation** that turns raw runs into the structured, golden-
  checked :class:`~repro.scenarios.runner.ScenarioResult`.

Sessions are deterministic functions of ``(spec, seed)``; running the same
session twice (or two sessions of the same spec) yields byte-identical
results.  The lower layers stay reachable through :attr:`Session.experiment`,
:meth:`Session.build_flower` and :meth:`Session.resolved_trace` instead of
being reconstructed.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.sharding import inseparable_reason, plan_blocks
from repro.experiments.driver import ExperimentRunner, ExperimentSetup, RunResult
from repro.scenarios.models import build_churn_model, build_fault_model
from repro.scenarios.runner import ScenarioResult, summarise_system
from repro.scenarios.spec import ScenarioSpec
from repro.sim.sharded import run_blocks

__all__ = ["Session"]


class Session:
    """One fully-wired simulation run: spec in, structured result out."""

    def __init__(
        self,
        spec: ScenarioSpec,
        seed: Optional[int] = None,
        shards: Optional[int] = None,
        shard_jobs: Optional[int] = None,
    ) -> None:
        self.spec = spec
        self.seed = spec.seed if seed is None else seed
        #: over how many worker processes a separable spec's blocks are placed
        #: (overrides the spec's ``shards`` field when given; 1: this process).
        #: A separable flower run executes one website's flower at a time
        #: (repro.sim.sharded) wherever its blocks are placed — byte-identical
        #: to the one-block run, so results carry no trace of the shard count;
        #: any other spec is one whole-catalogue block and refuses shards > 1.
        self.shards = spec.shards if shards is None else shards
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        self._inseparable = inseparable_reason(spec)
        if self.shards > 1 and self._inseparable is not None:
            raise ValueError(self._inseparable)
        #: worker-pool size for placed runs (None: the CPU-affinity default;
        #: 1 runs every placement inline — identical results either way)
        self.shard_jobs = shard_jobs
        #: per-worker statistics of the most recent flower run placed over
        #: more than one shard (None after a one-process run)
        self.last_shard_stats = None
        self._experiment = ExperimentRunner(spec.to_setup(seed=self.seed))
        self._churn_model = build_churn_model(spec.churn_model)
        self._fault_model = build_fault_model(spec.fault_model)

    # -- construction -------------------------------------------------------

    @classmethod
    def from_spec(
        cls,
        spec: ScenarioSpec,
        seed: Optional[int] = None,
        shards: Optional[int] = None,
        shard_jobs: Optional[int] = None,
    ) -> "Session":
        """A session for an explicit spec (the canonical constructor)."""
        return cls(spec, seed=seed, shards=shards, shard_jobs=shard_jobs)

    @classmethod
    def from_name(
        cls,
        name: str,
        seed: Optional[int] = None,
        scale: Optional[float] = None,
        shards: Optional[int] = None,
        shard_jobs: Optional[int] = None,
    ) -> "Session":
        """A session for a registered library scenario, optionally rescaled."""
        from repro.scenarios.library import get_scenario

        spec = get_scenario(name)
        if scale is not None and scale != 1.0:
            spec = spec.scaled(scale)
        return cls(spec, seed=seed, shards=shards, shard_jobs=shard_jobs)

    # -- the underlying layers ----------------------------------------------

    @property
    def setup(self) -> ExperimentSetup:
        """The compiled low-level configuration this session runs."""
        return self._experiment.setup

    @property
    def experiment(self) -> ExperimentRunner:
        """The underlying driver (exposed for tests and diagnostics)."""
        return self._experiment

    @property
    def churn_model(self):
        """The resolved churn-model instance (from the spec's registry ref)."""
        return self._churn_model

    @property
    def fault_model(self):
        """The resolved fault-model instance (from the spec's registry ref)."""
        return self._fault_model

    @property
    def last_injectors(self) -> List[object]:
        """Injectors of the most recent flower run when it was one
        whole-catalogue block (diagnostics; empty after a run cut into
        blocks — a block's injectors go with the block)."""
        return self._experiment.last_injectors

    def resolved_trace(self):
        """The shared resolved query trace (built once, array columns)."""
        return self._experiment.resolved_trace()

    def build_flower(self):
        """A bootstrapped ``(simulator, FlowerCDN)`` of the whole catalogue —
        what a one-block plan builds — to inspect before any query runs."""
        return self._experiment.build_flower()

    # -- execution ----------------------------------------------------------

    def attach_models(self, system) -> List[object]:
        """Attach the spec's churn/fault models to a built Flower system.

        Returns the resulting injectors (each with ``start()``/``stop()``;
        models that inject nothing contribute none).  This is the single
        place the model-to-run wiring lives: :meth:`run_system` attaches
        every block through it.
        """
        attached = (
            model.attach(system, self.spec) for model in (self._churn_model, self._fault_model)
        )
        return [injector for injector in attached if injector is not None]

    def run_system(self, system: str) -> RunResult:
        """Run one of the spec's systems over the shared trace."""
        if system == "flower":
            plan = plan_blocks(self.spec) if self._inseparable is None else None
            attachments = (self.attach_models,)
            result, self.last_shard_stats = run_blocks(
                self._experiment, plan, attachments, self.shards, self.shard_jobs, self.spec
            )
            return result
        if system == "squirrel":
            return self._experiment.run_squirrel()
        raise ValueError(f"unknown system {system!r}; expected 'flower' or 'squirrel'")

    def run(self) -> ScenarioResult:
        """Run every system the spec names and summarise (the main entry)."""
        systems: Dict[str, object] = {}
        for system in self.spec.systems:
            run = self.run_system(system)
            systems[system] = summarise_system(self.spec, system, run)
        return ScenarioResult(spec=self.spec, seed=self.seed, systems=systems)
