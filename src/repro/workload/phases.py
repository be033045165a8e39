"""Compiled workload phases: the execution-level view of a scenario program.

A scenario *program* (an ordered tuple of declarative
:class:`~repro.scenarios.program.WorkloadPhase` values) compiles down to a
tuple of :class:`PhaseSpan` segments — absolute, contiguous ``[start_s,
end_s)`` intervals carrying the effective workload parameters of that slice
of the run.  The :class:`~repro.workload.generator.QueryGenerator` consumes
spans directly: arrival rates are modulated per span (exact inhomogeneous
Poisson via residual rescaling at the boundaries), and the per-query draws of
a span use that span's Zipf exponent and hotspot rotation.  A stationary run
is the program of one span, ``PhaseSpan(0.0, duration_s)``.

The compiled representation deliberately lives in the workload layer, below
:mod:`repro.scenarios`: the generator knows nothing about scenario specs,
only about spans, which keeps the declarative vocabulary and the execution
substrate independently testable.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Sequence, Tuple


@dataclass(frozen=True)
class PhaseSpan:
    """One compiled, absolute segment of a phased workload.

    ``rate_multiplier`` scales the configured aggregate query rate inside the
    span; ``zipf_alpha`` overrides the workload's Zipf exponent (``None``
    inherits it); ``hotspot_rotation`` rotates the active-website window by
    that many positions through the catalogue (applied modulo the catalogue
    size, so a spec stays valid when it is scaled down).
    """

    start_s: float
    end_s: float
    rate_multiplier: float = 1.0
    zipf_alpha: float | None = None
    hotspot_rotation: int = 0

    def __post_init__(self) -> None:
        if self.start_s < 0:
            raise ValueError("start_s must be non-negative")
        if self.end_s <= self.start_s:
            raise ValueError("end_s must exceed start_s")
        if self.rate_multiplier <= 0:
            raise ValueError("rate_multiplier must be positive")
        if self.zipf_alpha is not None and self.zipf_alpha < 0:
            raise ValueError("zipf_alpha must be non-negative or None")
        if self.hotspot_rotation < 0:
            raise ValueError("hotspot_rotation must be non-negative")

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


def segment_counts(times: Sequence[float], ends: Sequence[float]) -> Tuple[int, ...]:
    """How many of the sorted ``times`` fall into each contiguous segment.

    ``ends`` holds the segment end times; segment ``i`` is the half-open
    interval up to ``ends[i]`` (a time equal to a boundary belongs to the
    *next* segment).  Times at or past the final end are counted into the
    last segment (the horizon-crossing draw).
    """
    counts = []
    previous = 0
    for end in ends[:-1]:
        index = bisect_left(times, end, lo=previous)
        counts.append(index - previous)
        previous = index
    counts.append(len(times) - previous)
    return tuple(counts)
