"""Deterministic scenario harness.

A *scenario* is a declarative, named description of one end-to-end workload
(:class:`~repro.scenarios.spec.ScenarioSpec`); a
:class:`~repro.session.Session` composes the simulator, topology and CDN
systems from it and returns a structured, byte-for-byte reproducible
:class:`~repro.scenarios.runner.ScenarioResult`.  The library
(:mod:`repro.scenarios.library`) names the canonical workloads, and
:mod:`repro.scenarios.golden` pins their headline metrics against committed
golden files.
"""

from repro.scenarios.spec import ChurnProfile, ScenarioSpec
from repro.scenarios.program import WorkloadPhase, compile_program
from repro.scenarios.models import (
    ModelRef,
    churn_model_names,
    fault_model_names,
    register_churn_model,
    register_fault_model,
)
from repro.scenarios.runner import (
    ScenarioResult,
    SystemResult,
    run_scenario,
    summarise_system,
)
from repro.scenarios.library import (
    PAPER_DEFAULT,
    get_scenario,
    iter_scenarios,
    register_scenario,
    scenario_names,
    unregister_scenario,
)

__all__ = [
    "ChurnProfile",
    "ScenarioSpec",
    "WorkloadPhase",
    "compile_program",
    "ModelRef",
    "churn_model_names",
    "fault_model_names",
    "register_churn_model",
    "register_fault_model",
    "ScenarioResult",
    "SystemResult",
    "run_scenario",
    "summarise_system",
    "PAPER_DEFAULT",
    "get_scenario",
    "iter_scenarios",
    "register_scenario",
    "scenario_names",
    "unregister_scenario",
]
