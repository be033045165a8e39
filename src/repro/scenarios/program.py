"""Declarative scenario programs: ordered workload phases.

A *program* is an ordered tuple of :class:`WorkloadPhase` values attached to
a :class:`~repro.scenarios.spec.ScenarioSpec`.  Each phase describes one
slice of the run — how long it lasts, how the aggregate arrival rate is
scaled, whether the Zipf skew is overridden and how far the active-website
window ("hotspot") is rotated through the catalogue.  Programs *compile
down* to :class:`~repro.workload.phases.PhaseSpan` segments the workload
generator executes directly; the declarative and the execution layers are
kept separate so each stays independently testable (the DB-nets layering:
a small control vocabulary over an unchanged deterministic substrate).

An empty program means "one stationary workload over the whole run" — the
historical behaviour, byte-identical to pre-program specs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.workload.phases import PhaseSpan


@dataclass(frozen=True)
class WorkloadPhase:
    """One declarative phase of a scenario program.

    ``duration_s=None`` means "the remainder of the run" and is only valid
    for the final phase; explicit durations are rescaled proportionally when
    the owning spec is :meth:`~repro.scenarios.spec.ScenarioSpec.scaled`.
    """

    duration_s: Optional[float] = None
    rate_multiplier: float = 1.0
    zipf_alpha: Optional[float] = None
    hotspot_rotation: int = 0

    def __post_init__(self) -> None:
        for name, (kinds, what), optional in _PHASE_NUMBERS:
            value = getattr(self, name)
            if value is None and optional:
                continue
            if isinstance(value, bool) or not isinstance(value, kinds):
                raise ValueError(f"phase {name} must be {what}, got {value!r}")
        if self.duration_s is not None and self.duration_s <= 0:
            raise ValueError("phase duration_s must be positive or None")
        if self.rate_multiplier <= 0:
            raise ValueError("rate_multiplier must be positive")
        if self.zipf_alpha is not None and self.zipf_alpha < 0:
            raise ValueError("zipf_alpha must be non-negative or None")
        if self.hotspot_rotation < 0:
            raise ValueError("hotspot_rotation must be non-negative")

    def scaled(self, factor: float) -> "WorkloadPhase":
        """The phase with its explicit duration rescaled by ``factor``."""
        if self.duration_s is None:
            return self
        return WorkloadPhase(
            duration_s=self.duration_s * factor,
            rate_multiplier=self.rate_multiplier,
            zipf_alpha=self.zipf_alpha,
            hotspot_rotation=self.hotspot_rotation,
        )

    def to_dict(self) -> dict:
        return {
            "duration_s": self.duration_s,
            "rate_multiplier": self.rate_multiplier,
            "zipf_alpha": self.zipf_alpha,
            "hotspot_rotation": self.hotspot_rotation,
        }


#: (name, (types, what), optional) of each phase field; request bodies are
#: JSON, where a ``true`` is not a number
_PHASE_NUMBERS = (
    ("duration_s", ((int, float), "a number"), True),
    ("rate_multiplier", ((int, float), "a number"), False),
    ("zipf_alpha", ((int, float), "a number"), True),
    ("hotspot_rotation", (int, "an integer"), False),
)


def compile_program(
    program: Sequence[WorkloadPhase], duration_s: float
) -> Tuple[PhaseSpan, ...]:
    """Compile declarative phases into contiguous absolute spans.

    Phase durations must tile ``[0, duration_s)`` exactly; a single trailing
    ``duration_s=None`` phase absorbs whatever the explicit phases leave
    (which also sidesteps floating-point residue when specs are rescaled).
    Raises ``ValueError`` for empty remainders, over-long programs or a
    ``None`` duration anywhere but last.
    """
    program = tuple(program)
    if not program:
        return ()
    spans: List[PhaseSpan] = []
    clock = 0.0
    for index, phase in enumerate(program):
        is_last = index == len(program) - 1
        if phase.duration_s is None:
            if not is_last:
                raise ValueError(
                    "only the final phase may leave duration_s unset "
                    f"(phase {index} of {len(program)} does)"
                )
            end = duration_s
        else:
            end = clock + phase.duration_s
            if is_last:
                if abs(end - duration_s) > 1e-9 * max(1.0, duration_s):
                    raise ValueError(
                        f"phase durations must sum to the run duration: got "
                        f"{end}, expected {duration_s} (leave the final "
                        f"phase's duration_s unset to absorb the remainder)"
                    )
                end = duration_s
        if end <= clock:
            raise ValueError(
                f"phase {index} is empty: the run ends at {duration_s} but "
                f"the preceding phases already cover {clock}"
            )
        if end > duration_s + 1e-9 * max(1.0, duration_s):
            raise ValueError(
                f"phase {index} extends past the run: phases cover {end} "
                f"of a {duration_s}-second run"
            )
        spans.append(
            PhaseSpan(
                start_s=clock,
                end_s=end,
                rate_multiplier=phase.rate_multiplier,
                zipf_alpha=phase.zipf_alpha,
                hotspot_rotation=phase.hotspot_rotation,
            )
        )
        clock = end
    return tuple(spans)


def scale_program(
    program: Sequence[WorkloadPhase], factor: float
) -> Tuple[WorkloadPhase, ...]:
    """Rescale every explicit phase duration by ``factor`` (ratio-preserving)."""
    return tuple(phase.scaled(factor) for phase in program)
