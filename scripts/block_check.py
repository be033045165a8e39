#!/usr/bin/env python
"""Block check: one flower at a time must be the one-block run, byte for byte.

For each named library scenario (and, with ``--table1-hours H``, the Table 1
spec cut to ``H`` simulated hours: compact metrics, calendar queue) three
runs of the same ``(spec, seed)`` are compared:

* **one block** — ``run_blocks(session.experiment, None, ...)`` with the
  spec's models attached: the plan of one whole-catalogue block, every flower
  interleaved in one system (the reference);
* **default** — ``Session.run()``: one block per queryable website, one after
  another in this process;
* **shards 2** — the same blocks placed over two worker processes.

``result.json`` *and* ``digest.json`` — every system's blocks of them, for a
Squirrel pair — must be identical in all three.  Exits 1 on the first
scenario where they are not.  Part of ``make shard-check`` and of CI's
sharded-equivalence step.

Usage (repo root, ``PYTHONPATH=src``)::

    python scripts/block_check.py [--seed N] [--table1-hours H] [NAME ...]
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from repro.core.config import HOUR
from repro.scenarios.artifacts import DIGEST_FILENAME, RESULT_FILENAME, run_documents
from repro.scenarios.library import get_scenario
from repro.scenarios.runner import ScenarioResult, summarise_system
from repro.session import Session
from repro.sim.sharded import run_blocks


def documents(result: ScenarioResult) -> tuple:
    bundle = run_documents(result)
    return bundle[RESULT_FILENAME], bundle[DIGEST_FILENAME]


def one_block(spec, seed: int) -> ScenarioResult:
    session = Session(spec, seed=seed)
    runs = {
        "flower": lambda: run_blocks(session.experiment, None, (session.attach_models,))[0],
        "squirrel": lambda: session.run_system("squirrel"),
    }
    systems = {name: summarise_system(spec, name, runs[name]()) for name in spec.systems}
    return ScenarioResult(spec, seed, systems)


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="library scenarios (separable ones)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--table1-hours", type=float, default=0.0,
                        help="also check Table 1 cut to this many simulated hours")
    args = parser.parse_args(argv)
    specs = [get_scenario(name) for name in args.names]
    if args.table1_hours > 0:
        specs.append(replace(
            get_scenario("paper-default-full-scale"),
            name=f"table1-{args.table1_hours:g}h",
            duration_s=args.table1_hours * HOUR,
            metrics_window_s=None,
        ))
    for spec in specs:
        reference = documents(one_block(spec, args.seed))
        for label, placement in (("default", {}), ("shards 2", {"shards": 2})):
            if documents(Session(spec, seed=args.seed, **placement).run()) != reference:
                print(f"FAIL {spec.name}: {label} differs from the one-block run")
                return 1
        print(f"ok   {spec.name}: one block == default == shards 2 (result.json, digest.json)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
