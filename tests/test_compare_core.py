"""The one compare core behaves exactly like the three functions it replaced.

``compare_digests``, ``compare_sweep_digests`` and ``diff_digests`` used to
walk digests separately, each applying the tolerance rule (and the
"fractions default to 0" rule) on its own.  They are now views over
:func:`repro.scenarios.golden.system_deltas`.  The pre-refactor
implementations are pinned below as the reference (the per-system walk the
two gates duplicated is written once, with the message prefix as a
parameter); hypothesis generates digest pairs with missing systems, phases and metrics, fractions
that appear and vanish, and values on both sides of every tolerance band, and
the views must reproduce the reference message lists and rows exactly.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from hypothesis import given, settings, strategies as st

from repro.scenarios import diffing, golden
from repro.scenarios.golden import EXACT, FRACTION_TOLERANCE, Tolerance, _tolerance_for
from repro.sweeps import golden as sweep_golden

# -- the pre-refactor implementations (reference; do not "simplify") ----------


def reference_metric_block(
    expected: Dict[str, float], actual: Dict[str, float], prefix: str, phase: bool
) -> List[str]:
    mismatches: List[str] = []
    for metric in sorted(set(expected) | set(actual)):
        if metric.startswith("fraction_"):
            if not FRACTION_TOLERANCE.allows(
                float(expected.get(metric, 0.0)), float(actual.get(metric, 0.0))
            ):
                mismatches.append(
                    f"{prefix}.{metric}: golden={expected.get(metric, 0.0)} "
                    f"actual={actual.get(metric, 0.0)} "
                    f"(tolerance abs={FRACTION_TOLERANCE.absolute})"
                )
            continue
        if metric not in actual:
            mismatches.append(f"{prefix}.{metric}: missing from the fresh run")
            continue
        if metric not in expected:
            mismatches.append(f"{prefix}.{metric}: not present in the golden")
            continue
        tolerance = _tolerance_for(metric, phase=phase)
        if not tolerance.allows(float(expected[metric]), float(actual[metric])):
            mismatches.append(
                f"{prefix}.{metric}: golden={expected[metric]} actual={actual[metric]} "
                f"(tolerance rel={tolerance.relative} abs={tolerance.absolute})"
            )
    return mismatches


def reference_systems(expected_systems, actual_systems, where: str) -> List[str]:
    mismatches: List[str] = []
    for system in sorted(set(expected_systems) | set(actual_systems)):
        if system not in actual_systems:
            mismatches.append(f"{where}{system}: missing from the fresh run")
            continue
        if system not in expected_systems:
            mismatches.append(f"{where}{system}: not present in the golden")
            continue
        mismatches.extend(
            reference_metric_block(
                expected_systems[system].get("metrics", {}),
                actual_systems[system].get("metrics", {}),
                prefix=f"{where}{system}.metrics",
                phase=False,
            )
        )
        expected_phases = expected_systems[system].get("phases", {})
        actual_phases = actual_systems[system].get("phases", {})
        for phase in sorted(set(expected_phases) | set(actual_phases)):
            mismatches.extend(
                reference_metric_block(
                    expected_phases.get(phase, {}),
                    actual_phases.get(phase, {}),
                    prefix=f"{where}{system}.phases.{phase}",
                    phase=True,
                )
            )
    return mismatches


def reference_compare_digests(expected, actual) -> List[str]:
    mismatches: List[str] = []
    for field in ("scenario", "seed", "scale"):
        if expected.get(field) != actual.get(field):
            mismatches.append(
                f"{field}: golden={expected.get(field)!r} actual={actual.get(field)!r}"
            )
    mismatches.extend(
        reference_systems(expected.get("systems", {}), actual.get("systems", {}), "")
    )
    return mismatches


def reference_compare_sweep_digests(expected, actual) -> List[str]:
    mismatches: List[str] = []
    for field in ("sweep", "base", "base_seed", "scale", "seed_policy", "axes"):
        if expected.get(field) != actual.get(field):
            mismatches.append(
                f"{field}: golden={expected.get(field)!r} actual={actual.get(field)!r}"
            )
    expected_cells = expected.get("cells", [])
    actual_cells = actual.get("cells", [])
    if len(expected_cells) != len(actual_cells):
        mismatches.append(
            f"cells: golden has {len(expected_cells)}, fresh run has {len(actual_cells)}"
        )
        return mismatches
    for index, (want, got) in enumerate(zip(expected_cells, actual_cells)):
        where = f"cell[{index}]"
        for field in ("coordinates", "assignments", "labels", "seed"):
            if want.get(field) != got.get(field):
                mismatches.append(
                    f"{where}.{field}: golden={want.get(field)!r} actual={got.get(field)!r}"
                )
        mismatches.extend(
            reference_systems(want.get("systems", {}), got.get("systems", {}), f"{where}.")
        )
    return mismatches


def reference_diff_rows(left, right, exact: bool) -> List[tuple]:
    """``(metric, left, right, tolerance)`` per row, as the old diff built them."""

    def blocks(digest):
        for system in sorted(digest.get("systems", {})):
            entry = digest["systems"][system]
            yield f"{system}.metrics", False, entry.get("metrics", {})
            for phase in sorted(entry.get("phases", {})):
                yield f"{system}.phases.{phase}", True, entry["phases"][phase]

    left_blocks = {prefix: (phase, metrics) for prefix, phase, metrics in blocks(left)}
    right_blocks = {prefix: (phase, metrics) for prefix, phase, metrics in blocks(right)}
    rows: List[tuple] = []
    for prefix in sorted(set(left_blocks) | set(right_blocks)):
        phase, left_metrics = left_blocks.get(prefix, (False, {}))
        phase_r, right_metrics = right_blocks.get(prefix, (phase, {}))
        phase = phase or phase_r
        for metric in sorted(set(left_metrics) | set(right_metrics)):
            if exact:
                tolerance = EXACT
            elif metric.startswith("fraction_"):
                tolerance = FRACTION_TOLERANCE
            else:
                tolerance = _tolerance_for(metric, phase=phase)
            left_value = left_metrics.get(metric)
            right_value = right_metrics.get(metric)
            if metric.startswith("fraction_"):
                left_value = 0.0 if left_value is None else left_value
                right_value = 0.0 if right_value is None else right_value
            rows.append(
                (
                    f"{prefix}.{metric}",
                    None if left_value is None else float(left_value),
                    None if right_value is None else float(right_value),
                    tolerance,
                )
            )
    return rows


def reference_within(left: Optional[float], right: Optional[float], tolerance: Tolerance):
    if left is None or right is None:
        return False
    return tolerance.allows(left, right)


# -- digest pairs -------------------------------------------------------------

METRICS = (
    "num_queries",  # exact
    "hit_ratio",  # absolute band
    "average_lookup_latency_ms",  # relative + absolute band
    "redirection_failures",
    "resilience_time_to_recover_s",
    "not_in_the_table",  # falls back to exact
    "fraction_local_overlay_hit",
    "fraction_server_miss",
)
PHASE_METRICS = ("hit_ratio", "lookup_latency_ms", "transfer_distance_ms", "fraction_odd")
#: multiples of a metric's band the right-hand value is moved by
BAND_STEPS = (0.0, 0.5, 0.999, 1.001, 3.0, -0.5, -0.999, -1.001, -3.0)


@st.composite
def metric_pairs(draw, names, phase: bool):
    """Two metric blocks: shared, left-only and right-only names; shared
    values sit at a drawn multiple of the metric's tolerance band."""
    left: Dict[str, float] = {}
    right: Dict[str, float] = {}
    for name in draw(st.lists(st.sampled_from(names), unique=True)):
        side = draw(st.sampled_from(("both", "both", "both", "left", "right")))
        integral = name in ("num_queries", "redirection_failures")
        base = draw(
            st.integers(0, 5000) if integral
            else st.floats(0, 2000, allow_nan=False).map(lambda v: round(v, 6))
        )
        if name.startswith("fraction_"):
            base = draw(st.sampled_from((0.0, 0.01, 0.019, 0.021, 0.5)))
        tolerance = _tolerance_for(name, phase=phase)
        band = max(tolerance.absolute, tolerance.relative * abs(base)) or 1e-6
        moved = base + draw(st.sampled_from(BAND_STEPS)) * band
        if integral:
            moved = int(moved)
        if side != "right":
            left[name] = base
        if side != "left":
            right[name] = moved
    return left, right


@st.composite
def system_pairs(draw):
    """Two ``systems`` mappings with systems/phases missing on either side."""
    left: Dict[str, dict] = {}
    right: Dict[str, dict] = {}
    for system in draw(
        st.lists(st.sampled_from(("flower", "squirrel", "akamai")), unique=True)
    ):
        side = draw(st.sampled_from(("both", "both", "both", "left", "right")))
        left_entry: Dict[str, dict] = {}
        right_entry: Dict[str, dict] = {}
        left_entry["metrics"], right_entry["metrics"] = draw(
            metric_pairs(METRICS, phase=False)
        )
        for phase in draw(st.lists(st.sampled_from(("warmup", "steady")), unique=True)):
            phase_side = draw(st.sampled_from(("both", "both", "left", "right")))
            left_block, right_block = draw(metric_pairs(PHASE_METRICS, phase=True))
            if phase_side != "right":
                left_entry.setdefault("phases", {})[phase] = left_block
            if phase_side != "left":
                right_entry.setdefault("phases", {})[phase] = right_block
        dropped = draw(st.sampled_from((None, None, left_entry, right_entry)))
        if dropped is not None:
            dropped.pop("metrics")  # a digest entry without a metrics block
        if side != "right":
            left[system] = left_entry
        if side != "left":
            right[system] = right_entry
    return left, right


@st.composite
def digest_pairs(draw):
    left_systems, right_systems = draw(system_pairs())
    left = {"scenario": "s", "seed": 42, "scale": 0.25, "systems": left_systems}
    right = {
        "scenario": draw(st.sampled_from(("s", "t"))),
        "seed": draw(st.sampled_from((42, 7))),
        "scale": draw(st.sampled_from((0.25, 1.0))),
        "systems": right_systems,
    }
    if draw(st.booleans()) and not right_systems:
        del right["systems"]
    return left, right


@st.composite
def sweep_digest_pairs(draw):
    header = {"sweep": "g", "base": "b", "base_seed": 42, "scale": 0.25,
              "seed_policy": "shared", "axes": [{"label": "L"}]}
    left_cells, right_cells = [], []
    for index in range(draw(st.integers(0, 3))):
        left_systems, right_systems = draw(system_pairs())
        cell = {"coordinates": [index], "assignments": {"k": index},
                "labels": [["L", str(index)]], "seed": 42, "digest": "x"}
        left_cells.append({**cell, "systems": left_systems})
        right_cells.append(
            {**cell, "seed": draw(st.sampled_from((42, 43))), "digest": "y",
             "systems": right_systems}
        )
    if draw(st.integers(0, 5)) == 0:
        right_cells = right_cells[:-1] if right_cells else [{"systems": {}}]
    right_header = {**header, "scale": draw(st.sampled_from((0.25, 1.0)))}
    return {**header, "cells": left_cells}, {**right_header, "cells": right_cells}


# -- the equivalence ----------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(digest_pairs())
def test_compare_digests_messages_are_the_reference_ones(pair):
    expected, actual = pair
    assert golden.compare_digests(expected, actual) == reference_compare_digests(
        expected, actual
    )
    assert golden.compare_digests(expected, expected) == []


@settings(max_examples=100, deadline=None)
@given(sweep_digest_pairs())
def test_compare_sweep_digests_messages_are_the_reference_ones(pair):
    expected, actual = pair
    assert sweep_golden.compare_sweep_digests(
        expected, actual
    ) == reference_compare_sweep_digests(expected, actual)


@settings(max_examples=150, deadline=None)
@given(digest_pairs(), st.booleans())
def test_diff_digests_rows_are_the_reference_ones(pair, exact):
    left, right = pair
    diff = diffing.diff_digests(left, right, exact=exact)
    reference = reference_diff_rows(left, right, exact)
    assert [
        (delta.metric, delta.left, delta.right, delta.tolerance) for delta in diff.deltas
    ] == reference
    assert [delta.within_tolerance for delta in diff.deltas] == [
        reference_within(row_left, row_right, tolerance)
        for _, row_left, row_right, tolerance in reference
    ]
    assert diff.context == {
        field: (left.get(field), right.get(field))
        for field in ("scenario", "seed", "scale")
    }


def test_the_bands_are_exercised_on_both_sides():
    """The strategy is not vacuous: a value just inside a band passes, one
    just outside fails, through every view."""
    def digest(value):
        return {"scenario": "s", "seed": 1, "scale": 1.0,
                "systems": {"flower": {"metrics": {"hit_ratio": value}}}}

    assert golden.compare_digests(digest(0.5), digest(0.5199)) == []
    (message,) = golden.compare_digests(digest(0.5), digest(0.5201))
    assert message == (
        "flower.metrics.hit_ratio: golden=0.5 actual=0.5201 (tolerance rel=0.0 abs=0.02)"
    )
    assert not diffing.diff_digests(digest(0.5), digest(0.5199)).out_of_tolerance
    assert diffing.diff_digests(digest(0.5), digest(0.5201)).out_of_tolerance
