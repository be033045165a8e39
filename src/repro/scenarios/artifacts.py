"""Scenario run artifact bundle: one result, one on-disk layout.

A single scenario run renders to a small fixed *bundle* of files:

* ``digest.json``  — the golden-rounded metrics digest (exactly what
  ``repro scenarios run NAME`` prints, and what goldens commit);
* ``result.json``  — the full-precision :meth:`ScenarioResult.to_dict`
  document including every metric series (the byte-identity witness);
* ``series.csv``   — every per-system metric series flattened to
  ``system,series,time_s,value`` rows;
* ``summary.md``   — a GitHub-flavoured headline-metrics table.

:func:`run_documents` is the **single serialisation point**: both
``repro scenarios run NAME --out DIR`` and the ``repro serve`` run store
(:mod:`repro.service.store`) write exactly this mapping, so a CLI export and
a service-cached run are byte-for-byte the same bundle.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import Dict, List, Mapping

from repro.scenarios.runner import ScenarioResult

__all__ = [
    "ARTIFACT_FILES",
    "DIGEST_FILENAME",
    "RESULT_FILENAME",
    "dumps_json",
    "run_documents",
    "write_documents",
    "export_run_bundle",
]

#: artifact kind (as exposed by ``GET /runs/{id}/artifacts/{kind}`` and by
#: the documentation) -> bundle filename
ARTIFACT_FILES: Dict[str, str] = {
    "json": "result.json",
    "csv": "series.csv",
    "md": "summary.md",
}
#: the golden-rounded digest document of a bundle
DIGEST_FILENAME = "digest.json"
#: the full-precision result document of a bundle
RESULT_FILENAME = "result.json"


def dumps_json(document: object) -> str:
    """The canonical JSON serialisation used across bundle documents."""
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def _series_csv(result: ScenarioResult) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["system", "series", "time_s", "value"])
    for system_name, system in result.systems.items():
        for series_name, points in system.series.items():
            for time_s, value in points:
                writer.writerow([system_name, series_name, repr(time_s), repr(value)])
    return buffer.getvalue()


def _summary_md(result: ScenarioResult, scale: float) -> str:
    lines: List[str] = [
        f"# Scenario: {result.spec.name}",
        "",
        result.spec.description.strip() or "(no description)",
        "",
        f"seed: {result.seed} · scale: {scale:g} · "
        f"systems: {', '.join(result.systems)}",
        "",
    ]
    for system_name, system in result.systems.items():
        lines.append(f"## {system_name}")
        lines.append("")
        lines.append("| metric | value |")
        lines.append("| --- | --- |")
        for metric, value in sorted(system.metrics.items()):
            lines.append(f"| {metric} | {value} |")
        lines.append("")
    return "\n".join(lines)


def run_documents(result: ScenarioResult, scale: float = 1.0) -> Dict[str, str]:
    """The full bundle of one run as ``filename -> file text``.

    Every consumer of the bundle layout (the ``--out`` CLI export and the
    service run store) goes through this function, which is what keeps the
    two on-disk layouts identical by construction.
    """
    from repro.scenarios.golden import result_digest

    return {
        DIGEST_FILENAME: dumps_json(result_digest(result, scale=scale)),
        RESULT_FILENAME: dumps_json(result.to_dict()),
        ARTIFACT_FILES["csv"]: _series_csv(result),
        ARTIFACT_FILES["md"]: _summary_md(result, scale),
    }


def write_documents(documents: Mapping[str, str], out_dir: Path) -> List[Path]:
    """Write a ``filename -> text`` mapping into ``out_dir``; paths written.

    Each file is staged next to its destination and renamed into place, so an
    interrupted export leaves every present file complete (old or new), never
    truncated.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: List[Path] = []
    for filename, text in documents.items():
        path = out_dir / filename
        tmp = out_dir / f".{filename}.tmp"
        tmp.write_text(text, encoding="utf-8")
        tmp.replace(path)
        written.append(path)
    return written


def export_run_bundle(
    result: ScenarioResult, out_dir: Path, scale: float = 1.0
) -> List[Path]:
    """Write the run bundle into ``out_dir`` (atomic per file); paths written."""
    return write_documents(run_documents(result, scale=scale), out_dir)
