#!/usr/bin/env python3
"""The repository's end-to-end benchmark: one command, four workloads.

Contract mode (what ``BENCHMARK.json``'s command runs)::

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

runs one workload once — tracing off for the end-to-end metrics, or the
traced pass for the per-layer metrics — prints every metric by name with its
unit, and ends with one JSON line ``{"correct", "attempted", "failed",
"metrics"}``.

Summary mode (no ``--trace``) runs both passes of every selected workload,
writes ``out/summary-*.json`` and ends with a JSON summary whose last key is
``"claim": null``: this command measures, it never claims a gain.
``--smoke`` shrinks everything to seconds (the harness's own test),
``--full`` runs the paper's own sizes (Table 1 for 24 simulated hours; ten to
fifteen minutes), ``--repeat-check`` runs the end-to-end pass twice and fails
when the two disagree by more than a metric's bound, ``--record`` also
stores the summary as ``LATEST.json`` (``LATEST-full.json`` with ``--full``)
next to this file.

See ``README.md`` for the workload and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def _bootstrap_imports() -> None:
    """Make ``repro`` (this checkout's, nobody else's) and the harness importable."""
    package = ROOT / "src" / "repro"
    if not package.is_dir():
        sys.exit(f"error: {package} is missing: the benchmark measures the program in "
                 "this checkout and refuses to run without it")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import repro

    if package not in Path(repro.__file__).resolve().parents:
        sys.exit(f"error: imported repro from {repro.__file__}, not from {package}")


def load_contract() -> Dict[str, object]:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        sys.exit(f"error: {path} is missing")
    return json.loads(path.read_text(encoding="utf-8"))


def print_report(kind: str, report) -> None:
    for group, metrics in (("", report.metrics), ("only-here", report.extras)):
        for name, (value, unit) in metrics.items():
            label = f"{kind} {group}".strip()
            print(f"{label:<16} {report.workload:<20} {name:<36} {value:>16.6f} {unit}")
    print(f"{kind:<16} {report.workload:<20} {'ops_total':<36} {report.attempted:>16d} count")
    print(f"{kind:<16} {report.workload:<20} {'ops_failed':<36} {report.failed:>16d} count")
    for problem in report.problems:
        print(f"PROBLEM {report.workload}: {problem}")


def check_declared(report, declared: Sequence[Dict[str, str]], kind: str) -> None:
    """Every declared metric exactly once, with its declared unit, and no other."""
    if report.failed and not report.metrics:
        return  # a workload that could not run has nothing to compare
    wanted = {entry["name"]: entry["unit"] for entry in declared}
    emitted = {name: unit for name, (_value, unit) in report.metrics.items()}
    if wanted != emitted:
        missing = sorted(set(wanted) - set(emitted))
        extra = sorted(set(emitted) - set(wanted))
        units = sorted(n for n in set(wanted) & set(emitted) if wanted[n] != emitted[n])
        report.fail(f"{kind} metrics differ from BENCHMARK.json: missing {missing}, "
                    f"undeclared {extra}, unit mismatch {units}")


def contract_line(report) -> str:
    return json.dumps({
        "correct": report.failed == 0,
        "attempted": max(1, report.attempted),
        "failed": report.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in report.metrics.items()
        },
    })


def environment() -> Dict[str, object]:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": commit,
    }


def repeat_check(first, second, bounds: Dict[str, float]) -> List[Dict[str, object]]:
    """Rows ``workload x metric`` of two end-to-end passes against the bounds."""
    rows = []
    for name, (a, unit) in first.metrics.items():
        b = second.metrics.get(name, (float("nan"), unit))[0]
        gap = abs(b - a) / min(a, b)
        rows.append({"workload": first.workload, "metric": name, "first": a, "second": b,
                     "unit": unit, "gap": gap, "bound": bounds[name],
                     "within": gap <= bounds[name]})
    return rows


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=None,
                        help="time box of one run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    size = parser.add_mutually_exclusive_group()
    size.add_argument("--smoke", action="store_true")
    size.add_argument("--full", action="store_true")
    parser.add_argument("--repeat-check", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)

    _bootstrap_imports()
    from layers import run_traced
    from sizes import FULL, SMOKE, contract_sizes
    from workloads import WORKLOADS, Context, run_untraced

    contract = load_contract()
    if args.workload is not None and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {WORKLOADS}")
    seconds = args.seconds if args.seconds is not None else int(contract["run_seconds"])
    sizes = SMOKE if args.smoke else FULL if args.full else contract_sizes(seconds)
    ctx = Context(root=ROOT, seed=args.seed, seconds=float(seconds), sizes=sizes)
    names = [args.workload] if args.workload else list(WORKLOADS)

    if args.trace is not None and args.workload is not None:
        if args.trace:
            report = run_traced(ctx, args.workload)
            check_declared(report, contract["per_layer"], "per-layer")
        else:
            report = run_untraced(ctx, args.workload)
            check_declared(report, contract["end_to_end"], "end-to-end")
        print_report("layer" if args.trace else "e2e", report)
        print(contract_line(report))
        return 0 if report.failed == 0 else 1

    started = time.time()
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    summary: Dict[str, object] = {
        "preset": "smoke" if args.smoke else "full" if args.full else f"contract-{seconds}s",
        "seed": args.seed,
        "environment": environment(),
        "workloads": {},
    }
    failed = 0
    gaps: List[Dict[str, object]] = []
    for name in names:
        e2e = run_untraced(ctx, name)
        check_declared(e2e, contract["end_to_end"], "end-to-end")
        print_report("e2e", e2e)
        entry = {"end_to_end": _document(e2e)}
        if args.repeat_check:
            again = run_untraced(ctx, name)
            print_report("e2e-repeat", again)
            rows = repeat_check(e2e, again, bounds)
            gaps += rows
            failed += again.failed + sum(not row["within"] for row in rows)
            entry["repeat"] = _document(again)
        layer = run_traced(ctx, name)
        check_declared(layer, contract["per_layer"], "per-layer")
        print_report("layer", layer)
        entry["per_layer"] = _document(layer)
        failed += e2e.failed + layer.failed
        summary["workloads"][name] = entry
    for row in gaps:
        verdict = "ok" if row["within"] else "OVER BOUND"
        print(f"repeat {row['workload']:<20} {row['metric']:<18} {row['first']:>14.4f} "
              f"{row['second']:>14.4f} {row['unit']:<4} gap {row['gap']:.3f} "
              f"bound {row['bound']:.2f} {verdict}")
    if gaps:
        summary["repeat_check"] = gaps
    summary["wall_s"] = time.time() - started
    summary["ops_failed"] = failed
    summary["claim"] = None
    text = json.dumps(summary, indent=2) + "\n"
    ctx.out.mkdir(parents=True, exist_ok=True)
    (ctx.out / f"summary-{summary['preset']}-seed{args.seed}.json").write_text(text)
    if args.record:
        name = "LATEST-full.json" if args.full else "LATEST.json"
        (HERE / name).write_text(text, encoding="utf-8")
    print(json.dumps(summary))
    return 0 if failed == 0 else 1


def _document(report) -> Dict[str, object]:
    return {
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in report.metrics.items()},
        "only_here": {n: {"value": v, "unit": u} for n, (v, u) in report.extras.items()},
        "ops_total": report.attempted,
        "ops_failed": report.failed,
        "problems": report.problems,
    }


if __name__ == "__main__":
    raise SystemExit(main())
