"""The named sweep registry: the paper's multi-run experiments, declaratively.

Each entry compiles a family of runs the evaluation section reports as one
table or figure — the Table 2(a–c) gossip-parameter grids, the churn and
push-threshold ablations, and the Figure 6 Flower-CDN-vs-Squirrel hit-ratio
comparison.  The benchmark suite (``benchmarks/test_table2*``,
``test_ablation_churn``, ``test_ablation_push_threshold``, ``test_fig6_*``)
sources its configurations from here, and every sweep has a committed
tolerance-checked golden under ``tests/goldens/sweeps/`` (see
:mod:`repro.sweeps.golden`).

All paper sweeps use ``seed_policy="shared"`` — common random numbers, the
paper's own design: every cell processes the same workload trace and only
the swept parameter differs, so cross-cell comparisons (bandwidth ratios,
hit-ratio orderings) are paired, not independent samples.
"""

from __future__ import annotations

from typing import Dict, Iterator, List

from repro.core.config import HOUR, MINUTE
from repro.scenarios.library import get_scenario
from repro.scenarios.models import ModelRef
from repro.scenarios.spec import ChurnProfile
from repro.sweeps.spec import SweepAxis, SweepSpec

__all__ = [
    "register_sweep",
    "unregister_sweep",
    "get_sweep",
    "sweep_names",
    "iter_sweeps",
]

#: the parameter values of the paper's Table 2 (and the push-threshold
#: ablation its Section 6.2 reports in prose)
PAPER_GOSSIP_LENGTHS = (5, 10, 20)
PAPER_GOSSIP_PERIODS_S = (1 * MINUTE, 30 * MINUTE, 1 * HOUR)
PAPER_VIEW_SIZES = (20, 50, 70)
PAPER_PUSH_THRESHOLDS = (0.1, 0.5, 0.7)

_REGISTRY: Dict[str, SweepSpec] = {}


def register_sweep(sweep: SweepSpec, overwrite: bool = False) -> SweepSpec:
    """Add ``sweep`` to the registry under ``sweep.name``."""
    if sweep.name in _REGISTRY and not overwrite:
        raise ValueError(f"sweep {sweep.name!r} is already registered")
    _REGISTRY[sweep.name] = sweep
    return sweep


def unregister_sweep(name: str) -> None:
    """Remove a sweep (used by tests that register temporary sweeps)."""
    _REGISTRY.pop(name, None)


def get_sweep(name: str) -> SweepSpec:
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sweep_names())
        raise KeyError(f"unknown sweep {name!r}; known sweeps: {known}") from None


def sweep_names() -> List[str]:
    return sorted(_REGISTRY)


def iter_sweeps() -> Iterator[SweepSpec]:
    for name in sweep_names():
        yield _REGISTRY[name]


# -- the built-in registry ----------------------------------------------------

register_sweep(
    SweepSpec(
        name="table2a-gossip-length",
        description=(
            "Table 2(a): hit ratio vs background bandwidth when varying "
            "Lgossip (Tgossip = 30 min, Vgossip = 50)."
        ),
        base="paper-default",
        axes=(SweepAxis.single("Lgossip", "gossip_length", PAPER_GOSSIP_LENGTHS),),
    )
)

register_sweep(
    SweepSpec(
        name="table2b-gossip-period",
        description=(
            "Table 2(b): hit ratio vs background bandwidth when varying "
            "Tgossip (Lgossip = 10, Vgossip = 50); the keepalive period "
            "moves in lockstep, as in the paper's setup."
        ),
        base="paper-default",
        axes=(
            SweepAxis(
                label="Tgossip(s)",
                fields=("gossip_period_s", "keepalive_period_s"),
                values=tuple(
                    (float(period), float(period)) for period in PAPER_GOSSIP_PERIODS_S
                ),
            ),
        ),
    )
)

# Lgossip is clamped to the view size (a view cannot be gossiped about in
# messages longer than itself); the clamp derives from the base scenario so
# retuning paper-default keeps the grid valid.
_BASE_GOSSIP_LENGTH = get_scenario("paper-default").gossip_length

register_sweep(
    SweepSpec(
        name="table2c-view-size",
        description=(
            "Table 2(c): hit ratio vs background bandwidth when varying "
            "Vgossip (Lgossip = 10, Tgossip = 30 min); the gossip length is "
            "clamped to the view size, mirroring the legacy sweep semantics."
        ),
        base="paper-default",
        axes=(
            SweepAxis(
                label="Vgossip",
                fields=("view_size", "gossip_length"),
                values=tuple(
                    (int(view), min(_BASE_GOSSIP_LENGTH, int(view)))
                    for view in PAPER_VIEW_SIZES
                ),
                display=tuple(str(int(view)) for view in PAPER_VIEW_SIZES),
            ),
        ),
    )
)

register_sweep(
    SweepSpec(
        name="ablation-push-threshold",
        description=(
            "Push-threshold ablation (Section 6.2 prose): the paper reports "
            "'almost same gains and same trade-off' for thresholds 0.1/0.5/0.7."
        ),
        base="paper-default",
        axes=(
            SweepAxis.single("push threshold", "push_threshold", PAPER_PUSH_THRESHOLDS),
        ),
    )
)

# Half the heavy-churn scenario's rates, derived (not copied) so retuning
# heavy-churn keeps the ablation honest about "half-heavy"; the ablation
# measures graceful degradation, not the stress ceiling.
_HEAVY_CHURN = get_scenario("heavy-churn").churn
_HALF_HEAVY_CHURN = ChurnProfile(
    content_failures_per_hour=_HEAVY_CHURN.content_failures_per_hour / 2,
    directory_failures_per_hour=_HEAVY_CHURN.directory_failures_per_hour / 2,
    locality_changes_per_hour=_HEAVY_CHURN.locality_changes_per_hour / 2,
)

register_sweep(
    SweepSpec(
        name="ablation-churn",
        description=(
            "Churn ablation (Section 5 mechanisms): the same workload without "
            "churn and under half the heavy-churn scenario's rates; the "
            "recovery machinery must keep the hit-ratio drop modest."
        ),
        base="paper-default",
        axes=(
            SweepAxis(
                label="churn",
                fields=("churn",),
                values=((ChurnProfile(),), (_HALF_HEAVY_CHURN,)),
                display=("none", "half-heavy"),
            ),
        ),
    )
)

#: partition lengths swept by ``resilience-partition-gossip``, as fractions
#: of the run (the fault always starts at 40% and reconciles on heal)
PARTITION_DURATION_FRACTIONS = (0.1, 0.2, 0.3)

register_sweep(
    SweepSpec(
        name="resilience-partition-gossip",
        description=(
            "Resilience grid: how long locality 0 stays partitioned x how "
            "often peers gossip (keepalives move in lockstep, as in Table "
            "2(b)).  Longer partitions depress availability inside the "
            "fault window; shorter gossip periods buy back recovery time "
            "after the heal — the trade-off the reconciliation round is "
            "designed to sidestep."
        ),
        base="partition-heal-reconcile",
        axes=(
            SweepAxis(
                label="partition",
                fields=("fault_model",),
                values=tuple(
                    (
                        ModelRef.of(
                            "locality-partition",
                            at_fraction=0.4,
                            duration_fraction=fraction,
                            localities=(0,),
                            reconcile_on_heal=True,
                        ),
                    )
                    for fraction in PARTITION_DURATION_FRACTIONS
                ),
                display=tuple(
                    f"{fraction:.0%} of run" for fraction in PARTITION_DURATION_FRACTIONS
                ),
            ),
            SweepAxis(
                label="Tgossip(s)",
                fields=("gossip_period_s", "keepalive_period_s"),
                values=((900.0, 900.0), (1800.0, 1800.0)),
            ),
        ),
    )
)

register_sweep(
    SweepSpec(
        name="fig6-hit-ratio-comparison",
        description=(
            "Figure 6: Flower-CDN and Squirrel process the exact same trace; "
            "a single-cell sweep over the squirrel-head-to-head scenario "
            "whose per-system metrics are directly comparable."
        ),
        base="squirrel-head-to-head",
        axes=(),
    )
)
