"""Reference spin: how fast the box is while a run measures.

The reference box is a few cores of a shared host.  Its speed drifts by
10-15 % over minutes and drops to a half or a third in bursts that last from
a second to longer than a whole run, so a wall-clock time says as much about
the neighbours as about the program.  Every end-to-end run therefore also
times a fixed piece of pure-Python work, the *spin* (dict stores, list reads
and small-integer arithmetic: the simulator's diet), right before and after
each of its blocks, on each of its cores, and reports its timings in
*reference seconds*:

    reported = measured x REFERENCE_SPIN_S / spin

The ratio is the program's cost in spins, in which the box's speed cancels.
Which spins divide which block is the workload's choice (see
``workloads``): short blocks use the spins around them, long ones the
fastest spin of the run.  The spin is harness code: no change to the program
can move it.
"""

from __future__ import annotations

import os
import statistics
from time import perf_counter
from typing import Dict, List, Tuple

#: what one spin takes on the reference box when nothing interferes, seconds;
#: a constant of the unit "reference second", not something to re-measure
REFERENCE_SPIN_S = 0.0320
SPIN_STEPS = 200_000
_TABLE = list(range(1 << 16))

Metric = Tuple[float, str]


def reference_spin() -> float:
    """Run the fixed work once; seconds it took."""
    table = _TABLE
    seen: Dict[int, int] = {}
    total = 0
    started = perf_counter()
    for step in range(SPIN_STEPS):
        slot = (step * 40503) & 0xFFFF
        total += table[slot] % 7
        seen[slot & 1023] = total
    return perf_counter() - started


def slowdown(spins_s: List[float]) -> float:
    """How much slower than the reference box ``spins_s`` say this one ran."""
    return statistics.mean(spins_s) / REFERENCE_SPIN_S


class Calibration:
    """The spins of one run, in the groups they were taken in."""

    def __init__(self) -> None:
        self.groups: List[List[float]] = []
        self._cpus = sorted(os.sched_getaffinity(0))
        self._taken = 0

    def spin(self, times: int = 4) -> int:
        """Take a group of spins, pinned to this process's CPUs in turn; its index.

        The cores of a shared host are not equally disturbed (one of the
        reference box's two is often 20 % slower than the other), and the
        scheduler would run an unpinned spin on the quieter one while the
        blocks use both.
        """
        group = []
        try:
            for _ in range(times):
                os.sched_setaffinity(0, {self._cpus[self._taken % len(self._cpus)]})
                self._taken += 1
                group.append(reference_spin())
        finally:
            os.sched_setaffinity(0, self._cpus)
        self.groups.append(group)
        return len(self.groups) - 1

    def around(self, before: int, after: int) -> float:
        """The box's slowdown over a block that ran between two groups."""
        return slowdown(self.groups[before] + self.groups[after])

    @property
    def best_spin_s(self) -> float:
        return min(min(group) for group in self.groups)

    def at_best(self) -> float:
        """The box's slowdown at its fastest moment of the run."""
        return self.best_spin_s / REFERENCE_SPIN_S

    def extras(self) -> Dict[str, Metric]:
        spins = [spin for group in self.groups for spin in group]
        return {
            "calibration.best_spin_ms": (min(spins) * 1e3, "ms"),
            "calibration.median_spin_ms": (statistics.median(spins) * 1e3, "ms"),
            "calibration.spins": (float(len(spins)), "count"),
        }
