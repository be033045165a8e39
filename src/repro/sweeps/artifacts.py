"""Sweep artifact writers: one result table, three formats.

A :class:`~repro.sweeps.engine.SweepResult` renders to:

* **CSV** — one row per grid cell, one column per axis plus
  ``<system>.<metric>`` columns, then the cell seed and digest (what CI
  uploads as the sweep artifact);
* **JSON** — the canonical ``SweepResult.to_dict()`` digest (the same
  payload the sweep goldens commit);
* **Markdown** — a GitHub-flavoured table for docs and PR descriptions.

``export_artifacts`` writes all requested formats into a directory, named
``<sweep-name>.<ext>``, and is what ``repro sweep run --out DIR`` calls;
``sweep_documents`` is the same content in the run-bundle layout the
``repro serve`` store keeps.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import Dict, Iterable, List, Tuple

from repro.metrics.report import format_table
from repro.scenarios.artifacts import (
    ARTIFACT_FILES,
    DIGEST_FILENAME,
    dumps_json,
    write_documents,
)
from repro.sweeps.engine import SweepResult

__all__ = [
    "KNOWN_FORMATS",
    "result_table",
    "to_csv",
    "to_markdown",
    "format_sweep_result",
    "sweep_documents",
    "export_artifacts",
]

KNOWN_FORMATS = ("csv", "json", "md")


def result_table(result: SweepResult) -> Tuple[List[str], List[List[object]]]:
    """The flat (header, rows) table behind every artifact format."""
    axis_labels = [axis.label for axis in result.sweep.axes]
    systems = result.systems()
    metric_columns = [
        (system, metric)
        for system in systems
        for metric in result.metric_names(system)
    ]
    single_system = len(systems) == 1
    header = list(axis_labels)
    header.extend(
        metric if single_system else f"{system}.{metric}"
        for system, metric in metric_columns
    )
    header.extend(("seed", "digest"))

    rows: List[List[object]] = []
    for cell in result.cells:
        row: List[object] = [value for _, value in cell.labels]
        for system, metric in metric_columns:
            row.append(cell.systems.get(system, {}).get("metrics", {}).get(metric, ""))
        row.append(cell.seed)
        row.append(cell.digest)
        rows.append(row)
    return header, rows


def to_csv(result: SweepResult) -> str:
    header, rows = result_table(result)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def to_markdown(result: SweepResult) -> str:
    header, rows = result_table(result)
    lines = [
        f"# Sweep: {result.sweep.name}",
        "",
        result.sweep.description.strip(),
        "",
        f"base scenario: `{result.base}` · scale: {result.scale:g} · "
        f"base seed: {result.base_seed} · seed policy: {result.sweep.seed_policy}",
        "",
        "| " + " | ".join(header) + " |",
        "| " + " | ".join("---" for _ in header) + " |",
    ]
    for row in rows:
        lines.append("| " + " | ".join(str(value) for value in row) + " |")
    lines.append("")
    return "\n".join(lines)


def format_sweep_result(result: SweepResult) -> str:
    """A terminal table of the grid (digests elided for width)."""
    header, rows = result_table(result)
    # Drop the digest column for terminal display; it is 64 hex chars wide.
    header = header[:-1]
    rows = [row[:-1] for row in rows]
    title = f"Sweep: {result.sweep.name} (base {result.base}, scale {result.scale:g})"
    return format_table(header, [tuple(row) for row in rows], title=title)


def sweep_documents(result: SweepResult) -> Dict[str, str]:
    """One sweep result in the run-bundle layout, as ``filename -> file text``.

    The layout :func:`repro.scenarios.artifacts.run_documents` gives a single
    run: the ``repro serve`` run store keeps it as is, ``--out`` exports the
    artifact kinds under the sweep's name.  A sweep's digest *is* its full
    result, so both JSON documents carry the same text.
    """
    digest_text = dumps_json(result.to_dict())
    return {
        DIGEST_FILENAME: digest_text,
        ARTIFACT_FILES["json"]: digest_text,
        ARTIFACT_FILES["csv"]: to_csv(result),
        ARTIFACT_FILES["md"]: to_markdown(result),
    }


def export_artifacts(
    result: SweepResult,
    out_dir: Path,
    formats: Iterable[str] = KNOWN_FORMATS,
) -> List[Path]:
    """Write the requested artifact formats; returns the paths written."""
    formats = tuple(formats)
    unknown = [fmt for fmt in formats if fmt not in KNOWN_FORMATS]
    if unknown:
        raise ValueError(
            f"unknown artifact format(s) {unknown}; expected a subset of {KNOWN_FORMATS}"
        )
    documents = sweep_documents(result)
    return write_documents(
        {f"{result.sweep.name}.{fmt}": documents[ARTIFACT_FILES[fmt]] for fmt in formats},
        out_dir,
    )
