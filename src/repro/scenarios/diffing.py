"""Digest comparison across branches / parameter sets (``scenarios diff``).

``repro scenarios run NAME > A.json`` emits a metrics digest; this module
compares two such digests — typically produced on different branches, seeds
or parameter sets — metric by metric, with the same per-metric tolerance
bands the golden suite uses.  Output is a structured row per metric (values,
absolute and relative delta, whether the delta is inside the tolerance), so
"did my refactor move any metric, and by how much" is one command:

    repro scenarios diff baseline.json candidate.json
    repro scenarios diff baseline.json candidate.json --exact

Unlike the golden gate this is a *reporting* tool: it diffs whatever two
digests it is given, even across different scenarios or scales (the header
fields are reported as context rows rather than rejected).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List

from repro.scenarios.golden import MetricDelta, system_deltas


@dataclass(frozen=True, slots=True)
class DigestDiff:
    """Structured outcome of diffing two digests."""

    context: Dict[str, tuple]  # header field -> (left, right)
    deltas: List[MetricDelta]

    @property
    def out_of_tolerance(self) -> List[MetricDelta]:
        return [delta for delta in self.deltas if not delta.within_tolerance]

    @property
    def changed(self) -> List[MetricDelta]:
        return [delta for delta in self.deltas if delta.delta not in (0.0, None)]


def diff_digests(
    left: Dict[str, object],
    right: Dict[str, object],
    exact: bool = False,
) -> DigestDiff:
    """Compare two metrics digests metric by metric.

    ``exact`` replaces the golden tolerance bands with exact comparison —
    useful when the two digests are supposed to be byte-identical (e.g. a
    pure refactor on the same seed/scale).
    """
    context = {
        field: (left.get(field), right.get(field))
        for field in ("scenario", "seed", "scale")
    }
    left_systems = left.get("systems", {})
    right_systems = right.get("systems", {})
    deltas = [
        delta
        for system in sorted(set(left_systems) | set(right_systems))
        for delta in system_deltas(
            system,
            left_systems.get(system, {}),
            right_systems.get(system, {}),
            exact=exact,
        )
    ]
    return DigestDiff(context=context, deltas=deltas)


def load_digest(path: Path) -> Dict[str, object]:
    document = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(document, dict) or "systems" not in document:
        raise ValueError(
            f"{path} is not a scenario metrics digest (expected a JSON object "
            "with a 'systems' key, as emitted by `repro scenarios run NAME`)"
        )
    return document


def format_diff(diff: DigestDiff, all_rows: bool = False) -> str:
    """Human-readable report; out-of-tolerance rows are flagged with ``!``."""
    lines: List[str] = []
    for field, (left, right) in diff.context.items():
        marker = "" if left == right else "  (differs)"
        lines.append(f"# {field}: {left!r} -> {right!r}{marker}")
    rows = diff.deltas if all_rows else [
        delta for delta in diff.deltas if delta.delta != 0.0
    ]
    if not rows:
        lines.append("no metric differences")
        return "\n".join(lines)
    width = max(len(delta.metric) for delta in rows)
    for delta in rows:
        flag = " " if delta.within_tolerance else "!"
        left = "missing" if delta.left is None else f"{delta.left:.6g}"
        right = "missing" if delta.right is None else f"{delta.right:.6g}"
        if delta.delta is None:
            change = ""
        else:
            change = f"  delta {delta.delta:+.6g}"
            if delta.relative_delta is not None:
                change += f" ({delta.relative_delta:+.2%})"
        tolerance = delta.tolerance
        band = (
            " [exact]"
            if tolerance.relative == 0.0 and tolerance.absolute == 0.0
            else f" [tol rel={tolerance.relative:g} abs={tolerance.absolute:g}]"
        )
        lines.append(f"{flag} {delta.metric:<{width}}  {left} -> {right}{change}{band}")
    return "\n".join(lines)
