"""Golden-metrics regression facility.

Every library scenario has a committed golden file (``tests/goldens/<name>.json``)
holding its rounded metrics digest at a fixed reduced scale and seed.  The
golden suite re-runs each scenario and compares the fresh digest against the
committed one **with per-metric tolerances**, so any refactor of the hot path
(``core/system.py``, ``sim/engine.py``, overlay routing, workload generation)
is regression-checked end to end:

* a pure refactor reproduces the digest exactly (runs are deterministic);
* a small intentional behaviour change stays inside the tolerances;
* a real regression (hit ratio collapse, latency blow-up, lost queries)
  fails with a per-metric diff.

Workflow::

    python -m repro.scenarios.golden --check            # CI / make test
    python -m repro.scenarios.golden --update           # refresh after an
                                                        # intentional change
    python -m repro.cli scenarios run NAME --check-golden

``make goldens`` wraps ``--update``.  See ``docs/scenarios.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, TextIO

from repro.core.sharding import inseparable_reason
from repro.scenarios.library import get_scenario, scenario_names
from repro.scenarios.runner import ScenarioResult, run_scenario
from repro.scenarios.spec import ScenarioSpec

#: scale factor applied to *standard-tier* library scenarios when producing
#: goldens — small enough that the whole suite runs in seconds, large enough
#: that the paper's qualitative behaviour (warm-up, locality gains) is still
#: visible.  Paper-scale-tier scenarios are pinned at scale 1.0 — their whole
#: point is the genuine Table 1 configuration — and are verified by the
#: nightly job instead of the per-PR gate.
GOLDEN_SCALE = 0.25
#: the seed golden digests are pinned to
GOLDEN_SEED = 42
#: decimal places kept in golden digests
GOLDEN_PRECISION = 6


@dataclass(frozen=True)
class Tolerance:
    """Acceptance band for one metric: ``|actual - expected|`` must not
    exceed ``max(absolute, relative * |expected|)``."""

    relative: float = 0.0
    absolute: float = 0.0

    def allows(self, expected: float, actual: float) -> bool:
        return abs(actual - expected) <= max(self.absolute, self.relative * abs(expected))


EXACT = Tolerance()

#: default per-metric tolerances; anything not listed is compared exactly,
#: and ``fraction_*`` metrics share the FRACTION band
DEFAULT_TOLERANCES: Dict[str, Tolerance] = {
    "num_queries": EXACT,  # the trace itself must not change silently
    "hit_ratio": Tolerance(absolute=0.02),
    "average_lookup_latency_ms": Tolerance(relative=0.05, absolute=5.0),
    "average_transfer_distance_ms": Tolerance(relative=0.05, absolute=5.0),
    "background_bps_per_peer": Tolerance(relative=0.05, absolute=1.0),
    "redirection_failures": Tolerance(relative=0.25, absolute=10.0),
    "average_overlay_hops": Tolerance(relative=0.10, absolute=0.2),
    # phase aggregates are means over few windows, hence slightly looser
    "phase:hit_ratio": Tolerance(absolute=0.03),
    "phase:lookup_latency_ms": Tolerance(relative=0.08, absolute=10.0),
    "phase:transfer_distance_ms": Tolerance(relative=0.08, absolute=10.0),
    # resilience block (faulted runs only); the window-based metrics aggregate
    # few windows, the counters shift with any hot-path change near the fault
    "resilience_hit_ratio_pre_fault": Tolerance(absolute=0.03),
    "resilience_availability_during_fault": Tolerance(absolute=0.03),
    "resilience_time_to_recover_s": Tolerance(relative=0.5, absolute=300.0),
    "resilience_messages_blocked": Tolerance(relative=0.25, absolute=20.0),
    "resilience_retries_exhausted": Tolerance(relative=0.5, absolute=10.0),
    "resilience_server_fallbacks": Tolerance(relative=0.25, absolute=20.0),
}
FRACTION_TOLERANCE = Tolerance(absolute=0.02)


def _tolerance_for(metric: str, phase: bool = False) -> Tolerance:
    if metric.startswith("fraction_"):
        return FRACTION_TOLERANCE
    key = f"phase:{metric}" if phase else metric
    return DEFAULT_TOLERANCES.get(key, EXACT)


# -- locations ---------------------------------------------------------------


def default_golden_dir() -> Path:
    """``tests/goldens`` of this checkout (overridable via REPRO_GOLDEN_DIR)."""
    override = os.environ.get("REPRO_GOLDEN_DIR")
    if override:
        return Path(override)
    return Path(__file__).resolve().parents[3] / "tests" / "goldens"


def golden_path(name: str, golden_dir: Optional[Path] = None) -> Path:
    directory = golden_dir if golden_dir is not None else default_golden_dir()
    return directory / f"{name}.json"


# -- producing digests -------------------------------------------------------


def golden_scale_for(name: str) -> float:
    """The scale a scenario's golden digest is pinned to (tier-dependent)."""
    return 1.0 if get_scenario(name).tier == "paper-scale" else GOLDEN_SCALE


def golden_spec(name: str) -> ScenarioSpec:
    """The library scenario at the scale goldens are pinned to."""
    spec = get_scenario(name)
    scale = golden_scale_for(name)
    return spec if scale == 1.0 else spec.scaled(scale)


def compute_golden_digest(name: str, shards: int = 1) -> Dict[str, object]:
    """Run ``name`` at golden scale/seed and return the digest to commit.

    ``shards >= 2`` places the run's blocks over that many worker processes,
    which is byte-identical to the one-process run — the sharded-equivalence
    gate compares it against the very same committed goldens.
    """
    result = run_scenario(golden_spec(name), seed=GOLDEN_SEED, shards=shards)
    return result_digest(result, scale=golden_scale_for(name))


def result_digest(result: ScenarioResult, scale: float = GOLDEN_SCALE) -> Dict[str, object]:
    digest = result.metrics_digest(precision=GOLDEN_PRECISION)
    digest["scale"] = scale
    return digest


def write_golden(name: str, golden_dir: Optional[Path] = None) -> Path:
    path = golden_path(name, golden_dir)
    path.parent.mkdir(parents=True, exist_ok=True)
    digest = compute_golden_digest(name)
    path.write_text(json.dumps(digest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def load_golden(name: str, golden_dir: Optional[Path] = None) -> Dict[str, object]:
    path = golden_path(name, golden_dir)
    if not path.exists():
        raise FileNotFoundError(
            f"no golden committed for scenario {name!r} (expected {path}); "
            f"run `python -m repro.scenarios.golden --update {name}`"
        )
    return json.loads(path.read_text(encoding="utf-8"))


# -- comparison --------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class MetricDelta:
    """One metric's two values and the tolerance band that applies to it.

    The single comparison primitive: the golden gates (:func:`compare_digests`,
    :func:`repro.sweeps.golden.compare_sweep_digests`) render out-of-band
    deltas as messages, ``repro scenarios diff`` renders every delta as a row.
    """

    metric: str  # dotted path, e.g. "flower.metrics.hit_ratio"
    left: Optional[float]  # None: the metric is absent on that side
    right: Optional[float]
    tolerance: Tolerance

    @property
    def delta(self) -> Optional[float]:
        if self.left is None or self.right is None:
            return None
        return self.right - self.left

    @property
    def relative_delta(self) -> Optional[float]:
        if self.left is None or self.right is None or self.left == 0:
            return None
        return (self.right - self.left) / abs(self.left)

    @property
    def within_tolerance(self) -> bool:
        if self.left is None or self.right is None:
            return False
        return self.tolerance.allows(float(self.left), float(self.right))


def system_deltas(
    system: str,
    left: Dict[str, object],
    right: Dict[str, object],
    exact: bool = False,
) -> Iterator[MetricDelta]:
    """One system's metric block, then its phase blocks in sorted order.

    ``left``/``right`` are the system's digest entries (``{}`` for a side the
    system is absent from).  ``exact`` replaces every band with :data:`EXACT`.
    """
    left_phases = left.get("phases", {})
    right_phases = right.get("phases", {})
    blocks = [("metrics", False, left.get("metrics", {}), right.get("metrics", {}))]
    blocks.extend(
        (f"phases.{phase}", True, left_phases.get(phase, {}), right_phases.get(phase, {}))
        for phase in sorted(set(left_phases) | set(right_phases))
    )
    for block, is_phase, left_metrics, right_metrics in blocks:
        for metric in sorted(set(left_metrics) | set(right_metrics)):
            left_value = left_metrics.get(metric)
            right_value = right_metrics.get(metric)
            if metric.startswith("fraction_"):
                # Outcome fractions only appear in a digest when the outcome
                # was observed at least once; a rare outcome drifting to/from
                # zero is an ordinary tolerance question, not a missing metric.
                left_value = 0.0 if left_value is None else left_value
                right_value = 0.0 if right_value is None else right_value
            yield MetricDelta(
                metric=f"{system}.{block}.{metric}",
                left=left_value,
                right=right_value,
                tolerance=EXACT if exact else _tolerance_for(metric, phase=is_phase),
            )


def field_mismatches(
    expected: Dict[str, object],
    actual: Dict[str, object],
    fields: Sequence[str],
    prefix: str = "",
) -> List[str]:
    """The fields (compared exactly) on which two documents differ."""
    return [
        f"{prefix}{field}: golden={expected.get(field)!r} actual={actual.get(field)!r}"
        for field in fields
        if expected.get(field) != actual.get(field)
    ]


def system_mismatches(
    expected: Dict[str, Dict[str, object]],
    actual: Dict[str, Dict[str, object]],
    prefix: str = "",
) -> List[str]:
    """The golden-gate view of the deltas between two ``systems`` mappings."""
    mismatches: List[str] = []
    for system in sorted(set(expected) | set(actual)):
        if system not in actual:
            mismatches.append(f"{prefix}{system}: missing from the fresh run")
            continue
        if system not in expected:
            mismatches.append(f"{prefix}{system}: not present in the golden")
            continue
        for delta in system_deltas(system, expected[system], actual[system]):
            if delta.right is None:
                mismatches.append(f"{prefix}{delta.metric}: missing from the fresh run")
            elif delta.left is None:
                mismatches.append(f"{prefix}{delta.metric}: not present in the golden")
            elif not delta.within_tolerance:
                band = f"abs={delta.tolerance.absolute}"
                if not delta.metric.rpartition(".")[2].startswith("fraction_"):
                    band = f"rel={delta.tolerance.relative} {band}"
                mismatches.append(
                    f"{prefix}{delta.metric}: golden={delta.left} "
                    f"actual={delta.right} (tolerance {band})"
                )
    return mismatches


def compare_digests(
    expected: Dict[str, object], actual: Dict[str, object]
) -> List[str]:
    """Per-metric differences between two digests (empty list = match)."""
    return field_mismatches(expected, actual, ("scenario", "seed", "scale")) + (
        system_mismatches(expected.get("systems", {}), actual.get("systems", {}))
    )


def verify_golden(
    name: str,
    golden_dir: Optional[Path] = None,
    shards: int = 1,
) -> List[str]:
    """Re-run ``name`` at golden scale and diff against the committed file."""
    expected = load_golden(name, golden_dir)
    actual = compute_golden_digest(name, shards=shards)
    return compare_digests(expected, actual)


# -- command line (used by `make goldens` / CI) ------------------------------


def report_check(name: str, mismatches: Sequence[str], out: TextIO) -> bool:
    """Print one golden check's outcome the way every gate does; True = ok."""
    if mismatches:
        print(f"FAIL {name}:", file=out)
        for mismatch in mismatches:
            print(f"  {mismatch}", file=out)
        return False
    print(f"ok   {name}", file=out)
    return True


def check_or_update(
    names: Sequence[str],
    update: bool,
    write: Callable[[str], Path],
    verify: Callable[[str], List[str]],
    out: TextIO,
) -> int:
    """The loop behind both golden command lines (scenario and sweep); exit code."""
    failures = 0
    for name in names:
        if update:
            print(f"updated {write(name)}", file=out)
            continue
        try:
            mismatches = verify(name)
        except FileNotFoundError as error:
            print(f"FAIL {name}: {error}", file=out)
            failures += 1
            continue
        failures += not report_check(name, mismatches, out)
    return 1 if failures else 0


def main(argv: Optional[Sequence[str]] = None, out: Optional[TextIO] = None) -> int:
    out = out if out is not None else sys.stdout
    parser = argparse.ArgumentParser(
        prog="repro.scenarios.golden",
        description="check or regenerate the committed golden-metrics files",
    )
    parser.add_argument("names", nargs="*",
                        help="scenario names (default: the selected tier)")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the goldens instead of checking them")
    parser.add_argument("--tier", choices=("standard", "paper-scale", "all"),
                        default="standard",
                        help="which tier to cover when no names are given "
                             "(default: standard; the paper-scale tier takes "
                             "minutes per scenario and runs nightly)")
    parser.add_argument("--golden-dir", type=Path, default=None)
    parser.add_argument("--shards", type=int, default=1, metavar="N",
                        help="place the run's blocks over N worker "
                             "processes; the digest must still match the "
                             "committed golden byte for byte (the "
                             "sharded-equivalence gate).  Scenarios that must "
                             "run as one block are skipped — see "
                             "repro.core.sharding.")
    args = parser.parse_args(argv)

    if args.shards != 1 and args.update:
        print("error: --shards cannot be combined with --update; goldens are "
              "produced by the single-process path (sharded runs must match "
              "them, not define them)", file=out)
        return 2
    if args.shards < 1:
        print("error: --shards must be >= 1", file=out)
        return 2

    if args.names:
        names = list(args.names)
    elif args.tier == "all":
        names = scenario_names()
    else:
        names = scenario_names(tier=args.tier)
    unknown = [name for name in names if name not in scenario_names()]
    if unknown:
        print(f"error: unknown scenario(s): {', '.join(unknown)}; "
              f"known scenarios: {', '.join(scenario_names())}", file=out)
        return 2
    if args.shards > 1:
        # A spec that must run as one block cannot be placed: say so, check the rest.
        separable = []
        for name in names:
            reason = inseparable_reason(golden_spec(name))
            if reason is None:
                separable.append(name)
            else:
                print(f"skip {name}: {reason}", file=out)
        names = separable
    return check_or_update(
        names,
        args.update,
        write=lambda name: write_golden(name, args.golden_dir),
        verify=lambda name: verify_golden(name, args.golden_dir, shards=args.shards),
        out=out,
    )


if __name__ == "__main__":  # pragma: no cover - exercised via main() in tests
    raise SystemExit(main())
