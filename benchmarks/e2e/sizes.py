"""How much work each workload does: the three size presets.

``contract`` is what ``BENCHMARK.json``'s command runs (time-boxed by
``--seconds``); ``full`` is the paper's own experiment, Table 1 for 24
simulated hours, for the occasional run of record; ``smoke`` exercises every
code path in a few seconds for the harness's own test.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, Optional, Tuple


@dataclass(frozen=True)
class Sizes:
    """Work per workload unit.  Plain values only: it crosses to the child as JSON."""

    #: simulated hours of the Table 1 experiment (24 = the registered scenario);
    #: 0 selects the tiny inline spec of the smoke preset
    paper_hours: float
    #: standard-tier scenario names (None: all of them) and their scale
    batch_names: Optional[Tuple[str, ...]]
    batch_scale: float
    #: caps per run: fresh children of paper-scale / paper-scale-sharded, and
    #: passes over the scenario list inside the standard-batch child
    max_children: int
    max_passes: int
    #: whether the time box (--seconds) ends a run before the caps are reached
    time_boxed: bool
    #: service-mixed: distinct cold submissions and hot request pairs
    cold_jobs: int
    hot_pairs: int
    #: timed process starts: server boots on the filled store, CLI start-ups
    boots: int
    #: seconds each isolated probe sample runs for (median of 5 samples)
    probe_s: float

    def to_json(self) -> Dict[str, object]:
        return asdict(self)


def contract_sizes(seconds: int) -> Sizes:
    """Sized so one run measures for about ``seconds`` on the reference box.

    Simulation workloads start another unit (a fresh child, a pass over the
    scenario list) while the box has time left and always finish the unit
    they started; the service phases are a fixed amount of work per second
    of budget, so their wall time is a measurement and not the box itself.
    """
    return Sizes(
        paper_hours=1.5,
        batch_names=None,
        batch_scale=1.0,
        max_children=64,
        max_passes=64,
        time_boxed=True,
        cold_jobs=max(8, 4 * seconds),
        hot_pairs=max(200, 100 * seconds),
        boots=5,
        probe_s=0.04,
    )


FULL = Sizes(
    paper_hours=24.0,
    batch_names=None,
    batch_scale=1.0,
    max_children=1,
    max_passes=3,
    time_boxed=False,
    cold_jobs=150,
    hot_pairs=12000,
    boots=5,
    probe_s=0.2,
)

SMOKE = Sizes(
    paper_hours=0.0,
    batch_names=("cold-start", "squirrel-head-to-head"),
    batch_scale=0.25,
    max_children=1,
    max_passes=1,
    time_boxed=False,
    cold_jobs=6,
    hot_pairs=100,
    boots=1,
    probe_s=0.002,
)
