"""Declarative parameter-sweep subsystem.

Single scenario runs flow ``ScenarioSpec → Session → golden``; this package
gives run *families* the same treatment: a frozen
:class:`~repro.sweeps.spec.SweepSpec` (base scenario + ordered
:class:`~repro.sweeps.spec.SweepAxis` grid) compiles into one derived
``ScenarioSpec`` per grid cell with deterministic per-cell seeds, executes
through the :class:`~repro.session.Session` facade — sequentially or over a
process pool, byte-identically — and folds into a
:class:`~repro.sweeps.engine.SweepResult` table with exactly checked
goldens (:mod:`repro.sweeps.golden`) and CSV/JSON/markdown artifact export
(:mod:`repro.sweeps.artifacts`).  The paper's multi-run experiments (the
Table 2 grids, the ablations, Figure 6) are registered in
:mod:`repro.sweeps.library`; CLI: ``repro sweep list|show|run``.
"""

from repro.sweeps.spec import (
    CompiledSweep,
    SweepAxis,
    SweepCell,
    SweepSpec,
    derive_cell_seed,
)
from repro.sweeps.engine import SweepCellResult, SweepResult, run_sweep
from repro.sweeps.library import (
    get_sweep,
    iter_sweeps,
    register_sweep,
    sweep_names,
    unregister_sweep,
)
from repro.sweeps.artifacts import export_artifacts, format_sweep_result

__all__ = [
    "CompiledSweep",
    "SweepAxis",
    "SweepCell",
    "SweepSpec",
    "derive_cell_seed",
    "SweepCellResult",
    "SweepResult",
    "run_sweep",
    "get_sweep",
    "iter_sweeps",
    "register_sweep",
    "sweep_names",
    "unregister_sweep",
    "export_artifacts",
    "format_sweep_result",
]
