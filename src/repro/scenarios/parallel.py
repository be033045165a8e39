"""Parallel scenario execution (multiprocessing over the registry).

Scenario runs are deterministic, share nothing, and are CPU-bound — the ideal
shape for process-level parallelism.  ``repro scenarios run --all --jobs N``
uses :func:`run_scenarios` to execute the whole library (or any subset) over
a worker pool.

Workers re-import :mod:`repro`, so results are exactly what a sequential run
produces (every worker builds its own topology/trace from ``(spec, seed)``).
``jobs=1`` bypasses multiprocessing entirely, which keeps single-job runs
debuggable and exception traces short.
"""

from __future__ import annotations

import multiprocessing
import os
import reprlib
import traceback
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.system import InfeasibleScenarioError
from repro.scenarios import golden as golden_module
from repro.scenarios.library import get_scenario, scenario_names
from repro.scenarios.runner import run_scenario


def default_jobs() -> int:
    """Worker count when ``--jobs`` is not given.

    Uses the process's CPU *affinity* where the platform exposes it —
    in containers and CI runners the cgroup/affinity mask is routinely
    smaller than the host's raw CPU count, and sizing the pool from
    ``os.cpu_count()`` oversubscribes it.
    """
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):
        return max(1, os.cpu_count() or 1)


class TaskError(RuntimeError):
    """A ``map_tasks`` worker raised; identifies which task failed."""

    def __init__(self, index: int, task_repr: str, cause_text: str):
        super().__init__(
            f"task #{index} ({task_repr}) failed in worker: {cause_text}"
        )
        self.index = index
        self.task_repr = task_repr
        self.cause_text = cause_text


class _TaskCall:
    """Module-level picklable wrapper running ``fn`` with failure capture.

    Pool workers lose the association between an exception and the task
    that raised it; wrapping every call lets the parent re-raise with the
    failing task identified (and the worker traceback preserved as text).
    """

    __slots__ = ("fn",)

    def __init__(self, fn: Callable[[Any], Any]) -> None:
        self.fn = fn

    def __call__(self, indexed: Tuple[int, Any]) -> Tuple[str, Any]:
        index, task = indexed
        try:
            return "ok", self.fn(task)
        except InfeasibleScenarioError as error:
            # A property of the request, not a crash.  The class does not
            # pickle (``args`` holds its message, not its fields), so the
            # fields travel and the parent raises it anew.
            return "infeasible", (
                error.locality, error.hosts_available, error.directories_required
            )
        except Exception:
            return "failed", (index, reprlib.repr(task), traceback.format_exc())


def map_tasks(
    fn: Callable[[Any], Any],
    tasks: Sequence,
    jobs: Optional[int] = None,
    chunksize: Optional[int] = None,
) -> List:
    """Map a picklable ``fn`` over ``tasks`` across ``jobs`` processes.

    The shared fan-out primitive of the scenario *and* sweep runners:
    results come back in task order regardless of completion order, and
    ``jobs=1`` (or a single task) bypasses multiprocessing entirely so
    single-job runs stay debuggable with short exception traces.  ``fn``
    must be a module-level callable and ``tasks`` picklable values —
    workers re-import :mod:`repro`, which is what makes parallel output
    byte-identical to sequential output.

    A worker exception surfaces as :class:`TaskError` naming the failing
    task's index and repr, with the worker traceback embedded — except
    :class:`~repro.core.system.InfeasibleScenarioError`, which is re-raised as
    itself so callers report it the way a single-process run does.  ``chunksize``
    batches task dispatch (``pool.map`` semantics); large grids amortise
    IPC overhead with ``chunksize > 1`` without affecting result order.
    """
    jobs = default_jobs() if jobs is None else jobs
    if jobs <= 0:
        raise ValueError(f"jobs must be positive, got {jobs}")
    if chunksize is not None and chunksize <= 0:
        raise ValueError(f"chunksize must be positive, got {chunksize}")
    tasks = list(tasks)
    call = _TaskCall(fn)
    if jobs == 1 or len(tasks) <= 1 or multiprocessing.current_process().daemon:
        # (A daemonic process — a `repro serve` job worker — may not have
        # children of its own; the service parallelises across jobs instead.)
        outcomes = [call(indexed) for indexed in enumerate(tasks)]
    else:
        with multiprocessing.Pool(processes=min(jobs, len(tasks))) as pool:
            outcomes = pool.map(call, list(enumerate(tasks)), chunksize=chunksize)
    results = []
    for status, payload in outcomes:
        if status == "infeasible":
            raise InfeasibleScenarioError(*payload)
        if status == "failed":
            raise TaskError(*payload)
        results.append(payload)
    return results


# -- worker entry points (module-level for picklability) ----------------------


def _run_one(args: tuple) -> tuple:
    name, seed, scale = args
    spec = get_scenario(name)
    result = run_scenario(spec, seed=seed, scale=scale)
    return name, golden_module.result_digest(result, scale=scale)


# -- public API ---------------------------------------------------------------


def resolve_names(names: Optional[Sequence[str]]) -> List[str]:
    """Validate scenario names, defaulting to the standard tier.

    The paper-scale tier (minutes per scenario) never runs implicitly — name
    those scenarios explicitly or use the nightly workflow.
    """
    if not names:
        return scenario_names(tier="standard")
    known = set(scenario_names())
    unknown = [name for name in names if name not in known]
    if unknown:
        raise KeyError(
            f"unknown scenario(s): {', '.join(unknown)}; "
            f"known scenarios: {', '.join(scenario_names())}"
        )
    return list(names)


def run_scenarios(
    names: Optional[Sequence[str]] = None,
    jobs: Optional[int] = None,
    seed: Optional[int] = None,
    scale: float = 1.0,
) -> Dict[str, Dict[str, object]]:
    """Run scenarios across ``jobs`` worker processes; name -> metrics digest.

    Results are returned in library order regardless of completion order, and
    are identical to sequential :func:`repro.scenarios.runner.run_scenario`
    runs of the same ``(spec, seed, scale)``.
    """
    tasks = [(name, seed, scale) for name in resolve_names(names)]
    return dict(map_tasks(_run_one, tasks, jobs=jobs))

