"""Golden-metrics regression facility.

Every library scenario has a committed golden file (``tests/goldens/<name>.json``)
holding its rounded metrics digest at a fixed reduced scale and seed.  The
golden suite re-runs each scenario and compares the fresh digest against the
committed one **exactly**, leaf by leaf (:func:`differing_leaves`).  Runs are
deterministic, so a refactor of the hot path (``core/system.py``,
``sim/engine.py``, overlay routing, workload generation) reproduces every
digest byte for byte, and a behaviour change fails with one line per moved
value until its goldens are refreshed in the same commit.

Workflow::

    python -m repro.scenarios.golden                    # check the standard tier
    python -m repro.scenarios.golden --update [NAME...] # refresh after an
                                                        # intentional change

``make goldens`` wraps ``--update``.  See ``docs/scenarios.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, TextIO, Tuple

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


class _Missing:
    """The value a document holds at a path only the other document has."""

    def __repr__(self) -> str:
        return "missing"


MISSING = _Missing()


def _leaves(document: object, path: Tuple = ()) -> Iterator[Tuple[Tuple, object]]:
    """``(path, value)`` of every scalar and every empty container of a JSON
    document; a path is its dict keys and list indices from the root."""
    if isinstance(document, dict) and document:
        for key, value in document.items():
            yield from _leaves(value, path + (key,))
    elif isinstance(document, list) and document:
        for index, value in enumerate(document):
            yield from _leaves(value, path + (index,))
    else:
        yield path, document


def _dotted(path: Tuple) -> str:
    text = ""
    for part in path:
        if isinstance(part, int):
            text += f"[{part}]"
        else:
            text += f".{part}" if text else str(part)
    return text


def differing_leaves(
    left: object, right: object, unchanged: bool = False
) -> List[Tuple[str, object, object]]:
    """``(dotted path, left value, right value)`` of every leaf on which two
    JSON documents differ, :data:`MISSING` standing for the side that lacks
    the path (e.g. ``cells[0].systems.flower.metrics.hit_ratio``).

    The one comparison of the golden gates and ``repro scenarios diff``: the
    list is empty exactly when ``left == right``.  Rows follow ``left``'s
    order, then the paths only ``right`` has; ``unchanged`` adds the leaves
    both documents hold equal.
    """
    left_leaves = dict(_leaves(left))
    right_leaves = dict(_leaves(right))
    paths = list(left_leaves) + [path for path in right_leaves if path not in left_leaves]
    rows = []
    for path in paths:
        left_value = left_leaves.get(path, MISSING)
        right_value = right_leaves.get(path, MISSING)
        if unchanged or left_value != right_value:
            rows.append((_dotted(path), left_value, right_value))
    return rows


def compare_digests(
    expected: Dict[str, object], actual: Dict[str, object]
) -> List[str]:
    """One ``path: golden=X actual=Y`` line per differing leaf (empty = match)."""
    return [
        f"{path}: golden={left!r} actual={right!r}"
        for path, left, right in differing_leaves(expected, actual)
    ]


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
        if mismatches:
            print(f"FAIL {name}:", file=out)
            for mismatch in mismatches:
                print(f"  {mismatch}", file=out)
            failures += 1
        else:
            print(f"ok   {name}", file=out)
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
