"""Declarative parameter-sweep specifications.

A :class:`SweepSpec` turns a *family* of runs — the Table 2 gossip-parameter
grids, the churn and push-threshold ablations, the Figure 6 head-to-head
comparison — into one frozen value object: a **base scenario** (a name from
the scenario library) plus an ordered tuple of :class:`SweepAxis` values,
each varying one or more :class:`~repro.scenarios.spec.ScenarioSpec` knobs
over a value grid.  Compiling a sweep takes the cartesian product of the
axes and derives one concrete ``ScenarioSpec`` per grid cell, together with
a deterministic per-cell seed:

* ``seed_policy="shared"`` gives every cell the same seed — common random
  numbers, the paper's own experimental design (same workload trace, one
  parameter varied), used by the Table 2 sweeps;
* ``seed_policy="derived"`` derives an independent 64-bit seed per cell from
  the sorted ``(field, value)`` assignments, so the seed depends only on
  *what* the cell pins, never on axis declaration order or grid position.

Sweeps are executed by :mod:`repro.sweeps.engine` (sequentially or across a
process pool, byte-identically) and the named registry of paper sweeps lives
in :mod:`repro.sweeps.library`.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, fields as dataclass_fields, is_dataclass, replace
from dataclasses import asdict
from typing import Dict, Optional, Tuple

from repro.scenarios.spec import ScenarioSpec, is_scale_factor
from repro.sim.rng import derive_seed

__all__ = [
    "KNOWN_SEED_POLICIES",
    "SweepAxis",
    "SweepCell",
    "SweepSpec",
    "CompiledSweep",
    "derive_cell_seed",
    "jsonify_value",
]

#: per-cell seed policies (see the module docstring)
KNOWN_SEED_POLICIES = ("shared", "derived")

#: every ScenarioSpec field name (axes may only set these)
_SPEC_FIELDS = frozenset(field.name for field in dataclass_fields(ScenarioSpec))
#: spec fields a sweep axis must not vary: identity/bookkeeping fields, and
#: the seed (cell seeds are governed by the sweep's seed policy instead)
_UNSWEEPABLE = frozenset({"name", "description", "seed", "tier"})


def jsonify_value(value: object) -> object:
    """A JSON-serialisable mirror of an axis value (dataclasses to dicts)."""
    if is_dataclass(value) and not isinstance(value, type):
        return {key: jsonify_value(item) for key, item in asdict(value).items()}
    if isinstance(value, (list, tuple)):
        return [jsonify_value(item) for item in value]
    return value


def _canonical(value: object) -> str:
    return json.dumps(jsonify_value(value), sort_keys=True)


def derive_cell_seed(
    base_seed: int, assignments: Tuple[Tuple[str, object], ...]
) -> int:
    """The ``"derived"`` policy: a 64-bit seed from the sorted assignments.

    Sorting by field name makes the seed a function of the *set* of
    ``(field, value)`` pins, so reordering the axes of a sweep (or reshaping
    the grid) never changes the seed any individual cell runs with.
    """
    key = ";".join(
        f"{field}={_canonical(value)}" for field, value in sorted(assignments)
    )
    return derive_seed(base_seed, f"sweep-cell:{key}")


@dataclass(frozen=True)
class SweepAxis:
    """One sweep dimension: a label, the spec field(s) it sets, and a grid.

    Most axes vary a single scalar knob (use :meth:`single`); an axis may
    also pin several fields *together* per grid point — e.g. Table 2(b)
    moves ``keepalive_period_s`` in lockstep with ``gossip_period_s`` — by
    listing multiple ``fields`` and giving one value tuple per point.
    """

    label: str
    fields: Tuple[str, ...]
    values: Tuple[Tuple[object, ...], ...]
    #: optional human-readable name per grid point (defaults to the first
    #: field's value rendered with ``str``) — used in tables and artifacts
    display: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.label:
            raise ValueError("axis label must be non-empty")
        if not self.fields:
            raise ValueError(f"axis {self.label!r} must set at least one field")
        if len(set(self.fields)) != len(self.fields):
            raise ValueError(f"axis {self.label!r} repeats a field")
        for name in self.fields:
            if name not in _SPEC_FIELDS:
                raise ValueError(
                    f"axis {self.label!r} sets unknown ScenarioSpec field {name!r}"
                )
            if name in _UNSWEEPABLE:
                raise ValueError(
                    f"axis {self.label!r} must not vary the {name!r} field"
                )
        if not self.values:
            raise ValueError(f"axis {self.label!r} has an empty value grid")
        for point in self.values:
            if not isinstance(point, tuple) or len(point) != len(self.fields):
                raise ValueError(
                    f"axis {self.label!r}: every grid point must be a tuple of "
                    f"{len(self.fields)} value(s), got {point!r}"
                )
        if self.display and len(self.display) != len(self.values):
            raise ValueError(
                f"axis {self.label!r}: display needs one entry per grid point"
            )

    @classmethod
    def single(
        cls,
        label: str,
        field: str,
        values,
        display: Tuple[str, ...] = (),
    ) -> "SweepAxis":
        """An axis varying one scalar field over ``values``."""
        return cls(
            label=label,
            fields=(field,),
            values=tuple((value,) for value in values),
            display=tuple(display),
        )

    def __len__(self) -> int:
        return len(self.values)

    def display_value(self, index: int) -> str:
        if self.display:
            return self.display[index]
        value = self.values[index][0]
        return f"{value:g}" if isinstance(value, float) else str(value)

    def to_dict(self) -> Dict[str, object]:
        return {
            "label": self.label,
            "fields": list(self.fields),
            "values": [jsonify_value(point) for point in self.values],
            "display": [self.display_value(i) for i in range(len(self.values))],
        }


@dataclass(frozen=True)
class SweepCell:
    """One grid cell: a fully derived scenario spec plus its seed."""

    #: grid coordinates, one index per axis (``()`` for a zero-axis sweep)
    coordinates: Tuple[int, ...]
    #: ``(field, value)`` pins in axis order (the cell's identity)
    assignments: Tuple[Tuple[str, object], ...]
    #: ``(axis label, display value)`` pairs in axis order (for rendering)
    labels: Tuple[Tuple[str, str], ...]
    spec: ScenarioSpec
    seed: int

    def assignment_dict(self) -> Dict[str, object]:
        """The pins as a JSON-serialisable mapping."""
        return {field: jsonify_value(value) for field, value in self.assignments}


@dataclass(frozen=True)
class CompiledSweep:
    """A sweep resolved against a concrete base spec: the executable grid."""

    sweep: "SweepSpec"
    base_name: str
    base_seed: int
    scale: float
    cells: Tuple[SweepCell, ...]

    def __len__(self) -> int:
        return len(self.cells)


@dataclass(frozen=True)
class SweepSpec:
    """A declarative multi-run experiment over the scenario library."""

    name: str
    description: str = ""
    #: the library scenario every cell derives from
    base: str = "paper-default"
    axes: Tuple[SweepAxis, ...] = ()
    #: "shared" (common random numbers) or "derived" (independent per-cell
    #: seeds, stable across axis reordering)
    seed_policy: str = "shared"

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("sweep name must be non-empty")
        if not self.base:
            raise ValueError("sweep base scenario must be non-empty")
        if self.seed_policy not in KNOWN_SEED_POLICIES:
            raise ValueError(
                f"unknown seed policy {self.seed_policy!r}; "
                f"expected one of {KNOWN_SEED_POLICIES}"
            )
        seen: Dict[str, str] = {}
        for axis in self.axes:
            for field in axis.fields:
                if field in seen:
                    raise ValueError(
                        f"field {field!r} is set by both axis {seen[field]!r} "
                        f"and axis {axis.label!r}"
                    )
                seen[field] = axis.label

    # -- shape ---------------------------------------------------------------

    @property
    def grid_shape(self) -> Tuple[int, ...]:
        return tuple(len(axis) for axis in self.axes)

    @property
    def num_cells(self) -> int:
        cells = 1
        for axis in self.axes:
            cells *= len(axis)
        return cells

    # -- compilation ---------------------------------------------------------

    def compile(
        self,
        base_spec: Optional[ScenarioSpec] = None,
        seed: Optional[int] = None,
        scale: Optional[float] = None,
    ) -> CompiledSweep:
        """Resolve the base scenario and derive one spec + seed per cell.

        ``base_spec`` overrides the library lookup of :attr:`base` (used by
        the benchmark harness to run a registered sweep against the
        paper-scale variant of its base); ``scale`` applies the usual
        ratio-preserving :meth:`ScenarioSpec.scaled` shrink to the base
        *before* the axis values are pinned (axis values are absolute
        parameter values, exactly as Table 2 states them).
        """
        if base_spec is None:
            from repro.scenarios.library import get_scenario

            base_spec = get_scenario(self.base)
        base_name = base_spec.name
        if scale is not None and not is_scale_factor(scale):
            raise ValueError(f"scale must be positive and finite, got {scale!r}")
        if scale is not None and scale != 1.0:
            base_spec = base_spec.scaled(scale)
        base_seed = base_spec.seed if seed is None else seed

        cells = []
        ranges = [range(len(axis)) for axis in self.axes]
        for coordinates in itertools.product(*ranges):
            assignments: Tuple[Tuple[str, object], ...] = tuple(
                (field, value)
                for axis, index in zip(self.axes, coordinates)
                for field, value in zip(axis.fields, axis.values[index])
            )
            labels = tuple(
                (axis.label, axis.display_value(index))
                for axis, index in zip(self.axes, coordinates)
            )
            spec = replace(base_spec, **dict(assignments)) if assignments else base_spec
            if self.seed_policy == "shared":
                cell_seed = base_seed
            else:
                cell_seed = derive_cell_seed(base_seed, assignments)
            cells.append(
                SweepCell(
                    coordinates=tuple(coordinates),
                    assignments=assignments,
                    labels=labels,
                    spec=spec,
                    seed=cell_seed,
                )
            )
        return CompiledSweep(
            sweep=self,
            base_name=base_name,
            base_seed=base_seed,
            scale=1.0 if scale is None else scale,
            cells=tuple(cells),
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "description": self.description,
            "base": self.base,
            "seed_policy": self.seed_policy,
            "axes": [axis.to_dict() for axis in self.axes],
        }
