"""Digest comparison across branches / parameter sets (``scenarios diff``).

``repro scenarios run NAME > A.json`` emits a metrics digest; this module
compares two such digests — typically produced on different branches, seeds
or parameter sets — with the exact leaf walk the golden gate uses
(:func:`repro.scenarios.golden.differing_leaves`).  Every leaf that differs
or exists on one side only is one row, and a number carries its absolute and
relative delta, so "did my refactor move any metric, and by how much" is one
command that exits 1 when any row is printed:

    repro scenarios diff baseline.json candidate.json

The header fields (scenario, seed, scale) are rows like any other leaf, so
two digests of different scenarios or scales are diffed, not rejected.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Sequence, Tuple


def load_digest(path: Path) -> Dict[str, object]:
    try:
        document = json.loads(Path(path).read_text(encoding="utf-8"))
    except RecursionError:
        raise ValueError(f"{path} nests deeper than the JSON decoder allows") from None
    systems = document.get("systems") if isinstance(document, dict) else None
    if not isinstance(systems, dict) or not all(
        isinstance(entry, dict) for entry in systems.values()
    ):
        raise ValueError(
            f"{path} is not a scenario metrics digest (expected a JSON object "
            "whose 'systems' maps each system to an object, as emitted by "
            "`repro scenarios run NAME`)"
        )
    return document


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def format_rows(rows: Sequence[Tuple[str, object, object]]) -> str:
    """One line per ``(path, left, right)`` row; a differing row is flagged
    ``!``, and a row of two numbers shows their delta."""
    if not rows:
        return "no differences"
    width = max(len(path) for path, _, _ in rows)
    lines: List[str] = []
    for path, left, right in rows:
        flag = "!" if left != right else " "
        change = ""
        if left != right and _is_number(left) and _is_number(right):
            change = f"  delta {right - left:+.6g}"
            if left != 0:
                change += f" ({(right - left) / abs(left):+.2%})"
        lines.append(f"{flag} {path:<{width}}  {left!r} -> {right!r}{change}")
    return "\n".join(lines)
