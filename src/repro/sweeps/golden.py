"""Golden-checked sweep grids.

Every registered sweep has a committed golden file
(``tests/goldens/sweeps/<name>.json``) holding its full
:meth:`~repro.sweeps.engine.SweepResult.to_dict` digest at the pinned golden
scale and seed (the same 0.25 / 42 the scenario goldens use).  Verification
re-runs the whole grid and compares **structure exactly** (cell count, axis
assignments, per-cell seeds) and **metrics with the scenario-golden
tolerances** — so a hot-path refactor is regression-checked across entire
parameter families, not just single runs.  Per-cell SHA-256 digests are
committed for byte-identity forensics but deliberately excluded from the
tolerance comparison (a within-tolerance drift must not fail the gate
twice).

Workflow::

    python -m repro.sweeps.golden                 # check all sweep goldens
    python -m repro.sweeps.golden --update        # refresh after an
                                                  # intentional change
    python -m repro.cli sweep run NAME --check-golden

``make goldens-sweeps`` / ``make check-goldens-sweeps`` wrap the two module
invocations.  See ``docs/sweeps.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.scenarios.golden import (
    GOLDEN_SCALE,
    GOLDEN_SEED,
    check_or_update,
    field_mismatches,
    system_mismatches,
)
from repro.sweeps.engine import run_sweep
from repro.sweeps.library import sweep_names

__all__ = [
    "SWEEP_GOLDEN_SCALE",
    "default_sweep_golden_dir",
    "sweep_golden_path",
    "compute_sweep_digest",
    "write_sweep_golden",
    "load_sweep_golden",
    "compare_sweep_digests",
    "verify_sweep_golden",
    "main",
]

#: sweep goldens are pinned to the scenario-golden scale (small enough that a
#: whole grid re-runs in seconds, large enough to keep the paper's shape)
SWEEP_GOLDEN_SCALE = GOLDEN_SCALE


def default_sweep_golden_dir() -> Path:
    """``tests/goldens/sweeps`` of this checkout (REPRO_SWEEP_GOLDEN_DIR overrides)."""
    override = os.environ.get("REPRO_SWEEP_GOLDEN_DIR")
    if override:
        return Path(override)
    return Path(__file__).resolve().parents[3] / "tests" / "goldens" / "sweeps"


def sweep_golden_path(
    name: str, golden_dir: Optional[Path] = None, scale: float = SWEEP_GOLDEN_SCALE
) -> Path:
    """File a sweep golden lives in; non-default scales get their own file.

    The per-PR gate pins every grid at :data:`SWEEP_GOLDEN_SCALE`; the nightly
    job additionally pins selected grids at scale 1.0 (``<name>@1x.json``), so
    the two never overwrite each other.
    """
    directory = golden_dir if golden_dir is not None else default_sweep_golden_dir()
    if scale == SWEEP_GOLDEN_SCALE:
        return directory / f"{name}.json"
    return directory / f"{name}@{scale:g}x.json"


# -- producing digests --------------------------------------------------------


def compute_sweep_digest(
    name: str, jobs: int = 1, scale: float = SWEEP_GOLDEN_SCALE
) -> Dict[str, object]:
    """Run ``name`` at the pinned golden seed and ``scale``; the digest to commit."""
    result = run_sweep(name, jobs=jobs, seed=GOLDEN_SEED, scale=scale)
    return result.to_dict()


def write_sweep_golden(
    name: str,
    golden_dir: Optional[Path] = None,
    jobs: int = 1,
    scale: float = SWEEP_GOLDEN_SCALE,
) -> Path:
    path = sweep_golden_path(name, golden_dir, scale=scale)
    path.parent.mkdir(parents=True, exist_ok=True)
    digest = compute_sweep_digest(name, jobs=jobs, scale=scale)
    path.write_text(json.dumps(digest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def load_sweep_golden(
    name: str, golden_dir: Optional[Path] = None, scale: float = SWEEP_GOLDEN_SCALE
) -> Dict[str, object]:
    path = sweep_golden_path(name, golden_dir, scale=scale)
    if not path.exists():
        scale_arg = "" if scale == SWEEP_GOLDEN_SCALE else f" --scale {scale:g}"
        raise FileNotFoundError(
            f"no golden committed for sweep {name!r} (expected {path}); "
            f"run `python -m repro.sweeps.golden --update{scale_arg} {name}`"
        )
    return json.loads(path.read_text(encoding="utf-8"))


# -- comparison ---------------------------------------------------------------


def compare_sweep_digests(
    expected: Dict[str, object], actual: Dict[str, object]
) -> List[str]:
    """Differences between two sweep digests (empty list = match).

    Grid structure — the sweep identity, axes, cell assignments, labels and
    seeds — must match exactly; each cell's systems are compared with the
    per-metric tolerances of the scenario goldens; per-cell ``digest``
    hashes are informational and never compared here.
    """
    mismatches = field_mismatches(
        expected, actual, ("sweep", "base", "base_seed", "scale", "seed_policy", "axes")
    )
    expected_cells = expected.get("cells", [])
    actual_cells = actual.get("cells", [])
    if len(expected_cells) != len(actual_cells):
        mismatches.append(
            f"cells: golden has {len(expected_cells)}, fresh run has {len(actual_cells)}"
        )
        return mismatches
    for index, (want, got) in enumerate(zip(expected_cells, actual_cells)):
        where = f"cell[{index}]."
        mismatches += field_mismatches(
            want, got, ("coordinates", "assignments", "labels", "seed"), prefix=where
        )
        mismatches += system_mismatches(
            want.get("systems", {}), got.get("systems", {}), prefix=where
        )
    return mismatches


def verify_sweep_golden(
    name: str,
    golden_dir: Optional[Path] = None,
    jobs: int = 1,
    scale: float = SWEEP_GOLDEN_SCALE,
) -> List[str]:
    """Re-run the whole grid at ``scale`` and diff against the committed file."""
    expected = load_sweep_golden(name, golden_dir, scale=scale)
    actual = compute_sweep_digest(name, jobs=jobs, scale=scale)
    return compare_sweep_digests(expected, actual)


# -- command line (used by `make goldens-sweeps` / CI) ------------------------


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = argparse.ArgumentParser(
        prog="repro.sweeps.golden",
        description="check or regenerate the committed sweep-golden files",
    )
    parser.add_argument("names", nargs="*",
                        help="sweep names (default: the whole registry)")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the goldens instead of checking them")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes per sweep grid (default 1)")
    parser.add_argument("--scale", type=float, default=SWEEP_GOLDEN_SCALE,
                        help="scenario scale to pin the grid at (default "
                             f"{SWEEP_GOLDEN_SCALE:g}; the nightly paper-scale "
                             "job checks selected grids at 1.0, stored as "
                             "<name>@1x.json)")
    parser.add_argument("--golden-dir", type=Path, default=None)
    args = parser.parse_args(argv)

    names = list(args.names) if args.names else sweep_names()
    unknown = [name for name in names if name not in sweep_names()]
    if unknown:
        print(f"error: unknown sweep(s): {', '.join(unknown)}; "
              f"known sweeps: {', '.join(sweep_names())}", file=sys.stderr)
        return 2
    if args.jobs <= 0:
        print("error: --jobs must be positive", file=sys.stderr)
        return 2
    if args.scale <= 0:
        print("error: --scale must be positive", file=sys.stderr)
        return 2
    return check_or_update(
        names,
        args.update,
        write=lambda name: write_sweep_golden(
            name, args.golden_dir, jobs=args.jobs, scale=args.scale
        ),
        verify=lambda name: verify_sweep_golden(
            name, args.golden_dir, jobs=args.jobs, scale=args.scale
        ),
        out=out,
    )


if __name__ == "__main__":  # pragma: no cover - exercised via main() in tests
    raise SystemExit(main())
