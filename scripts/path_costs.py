#!/usr/bin/env python
"""Path costs: what each of the paper's three protocol paths costs per call.

``perf_counter`` wrappers around the protocol entry points of one run —
installed from here (nothing under ``src/`` imports this file) and removed
again afterwards — print, per path, calls / total ms / µs per call:

* the **miss path** of an existing content peer (Section 4.1, Algorithm 5):
  ``_content_peer_query`` split by how the query ended (own-store hit, view
  hit, directory hit, server miss), the view probe inside it with the share
  of probes that found nothing and the share the view's union mask rejected
  without a scan, and ``_after_served`` (store + push);
* the **join** of a new client (Section 3.4): ``_new_client_query`` and its
  three parts — the D-ring route, the two process starts, view seeding;
* the **gossip tick** (Algorithm 4) and ``build_gossip_message`` inside it;
* the **collector**: seconds and passes, from ``gc.callbacks``.

Probe, ``_after_served``, join and gossip tick are disjoint, so their totals
can be compared across two commits and summed against the wall difference.
Wrapped time includes ~0.2 µs of wrapper per call; compare like with like.
The stand-in until the e2e ledger splits ``core.query_s`` / ``core.gossip_s``.

Usage (repo root, ``PYTHONPATH=src``)::

    python scripts/path_costs.py --scenario paper-default [--seed N] [--check-digest]
    python scripts/path_costs.py --table1-hours 1.5
"""

from __future__ import annotations

import argparse
import gc
import sys
from dataclasses import replace
from time import perf_counter
from typing import Callable, Dict, List, Tuple

from repro.core.columns import ColumnarView
from repro.core.config import HOUR
from repro.core.content_peer import ContentPeer
from repro.core.dring import DRing
from repro.core.maintenance import OverlayMaintenance
from repro.core.system import FlowerCDN
from repro.metrics.collectors import QueryOutcome
from repro.scenarios.artifacts import DIGEST_FILENAME, RESULT_FILENAME, run_documents
from repro.scenarios.library import get_scenario
from repro.session import Session

#: report rows in print order: (label, indent)
ROWS = (
    ("existing peer: own-store hit", 0),
    ("existing peer: view hit", 0),
    ("existing peer: directory hit", 0),
    ("existing peer: server miss", 0),
    ("view probe", 1),
    ("_after_served", 1),
    ("join (_new_client_query)", 0),
    ("D-ring route", 1),
    ("process starts", 1),
    ("view seeding", 1),
    ("gossip tick", 0),
    ("build_gossip_message", 1),
)


class PathCosts:
    """Wrappers around the protocol paths plus what they measured."""

    def __init__(self) -> None:
        #: label -> [calls, seconds]
        self.cost: Dict[str, List[float]] = {label: [0, 0.0] for label, _ in ROWS}
        self.probes_empty = 0
        self.probes_rejected = 0
        self.gc_s = 0.0
        self.gc_passes = 0
        self._gc_started = 0.0
        self._via_directory = False
        self._originals: List[Tuple[type, str, Callable]] = []

    # -- wrappers -----------------------------------------------------------

    def _replace(self, owner: type, name: str, wrapper: Callable) -> None:
        self._originals.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def _time(self, owner: type, name: str, label: str) -> None:
        original = getattr(owner, name)
        cell = self.cost[label]

        def wrapper(*args, **kwargs):
            started = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                cell[1] += perf_counter() - started
                cell[0] += 1

        self._replace(owner, name, wrapper)

    def install(self) -> None:
        self._time(FlowerCDN, "_after_served", "_after_served")
        self._time(FlowerCDN, "_new_client_query", "join (_new_client_query)")
        self._time(DRing, "resolve_directory", "D-ring route")
        self._time(OverlayMaintenance, "_start_content_processes", "process starts")
        self._time(FlowerCDN, "_initialize_view", "view seeding")
        self._time(OverlayMaintenance, "_gossip_tick", "gossip tick")
        self._time(ContentPeer, "build_gossip_message", "build_gossip_message")
        self._install_query_split()
        self._install_probe()
        gc.callbacks.append(self._on_gc)

    def _install_query_split(self) -> None:
        costs = self
        cost = self.cost
        query = FlowerCDN._content_peer_query
        flow = FlowerCDN._run_directory_flow
        server_miss = QueryOutcome.SERVER_MISS

        def timed_query(system, peer, website, object_id, locality):
            own = object_id in peer._objects
            costs._via_directory = False
            started = perf_counter()
            row = query(system, peer, website, object_id, locality)
            elapsed = perf_counter() - started
            if own:
                cell = cost["existing peer: own-store hit"]
            elif row[0] is server_miss:
                cell = cost["existing peer: server miss"]
            elif costs._via_directory:
                cell = cost["existing peer: directory hit"]
            else:
                cell = cost["existing peer: view hit"]
            cell[0] += 1
            cell[1] += elapsed
            return row

        def flagged_flow(system, *args, **kwargs):
            costs._via_directory = True
            return flow(system, *args, **kwargs)

        self._replace(FlowerCDN, "_content_peer_query", timed_query)
        self._replace(FlowerCDN, "_run_directory_flow", flagged_flow)

    def _install_probe(self) -> None:
        costs = self
        cell = self.cost["view probe"]
        probe = ColumnarView.probe

        def timed_probe(view, mask):
            # A view that keeps a union mask answers from it alone when the
            # union is known and does not cover the probe's mask.
            union = getattr(view, "_union", None)
            rejected = union is not None and union & mask != mask
            started = perf_counter()
            candidates = probe(view, mask)
            cell[1] += perf_counter() - started
            cell[0] += 1
            if not candidates:
                costs.probes_empty += 1
                costs.probes_rejected += rejected
            return candidates

        self._replace(ColumnarView, "probe", timed_probe)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = perf_counter()
        else:
            self.gc_s += perf_counter() - self._gc_started
            self.gc_passes += 1

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        for owner, name, original in reversed(self._originals):
            setattr(owner, name, original)
        self._originals.clear()

    # -- report -------------------------------------------------------------

    def report(self, title: str, wall_s: float) -> str:
        lines = [
            f"path costs: {title}  (wrapped job {wall_s:.3f} s)",
            f"{'path':<34}{'calls':>9}{'total ms':>11}{'us/call':>10}",
        ]
        for label, indent in ROWS:
            calls, seconds = self.cost[label]
            per_call = f"{seconds / calls * 1e6:10.2f}" if calls else f"{'-':>10}"
            lines.append(
                f"{'  ' * indent + label:<34}{int(calls):>9}{seconds * 1e3:>11.1f}{per_call}"
            )
        probes = int(self.cost["view probe"][0])
        if probes:
            lines.append(
                f"view probes that found nothing: {self.probes_empty} of {probes} "
                f"({self.probes_empty / probes:.1%}); rejected by the union mask: "
                f"{self.probes_rejected} ({self.probes_rejected / probes:.1%})"
            )
        lines.append(f"collector: {self.gc_s:.3f} s in {self.gc_passes} passes")
        return "\n".join(lines)


def run_job(spec, seed: int) -> Tuple[tuple, float]:
    """One job, spec in → ``(result.json, digest.json)`` out, and its wall time."""
    started = perf_counter()
    bundle = run_documents(Session(spec, seed=seed).run())
    return (bundle[RESULT_FILENAME], bundle[DIGEST_FILENAME]), perf_counter() - started


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    what = parser.add_mutually_exclusive_group(required=True)
    what.add_argument("--scenario", metavar="NAME", help="a library scenario")
    what.add_argument("--table1-hours", type=float, metavar="H",
                      help="the Table 1 spec cut to H simulated hours")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--check-digest", action="store_true",
                        help="also run unwrapped and require identical documents")
    args = parser.parse_args(argv)
    if args.scenario is not None:
        spec = get_scenario(args.scenario)
    else:
        spec = replace(
            get_scenario("paper-default-full-scale"),
            name=f"table1-{args.table1_hours:g}h",
            duration_s=args.table1_hours * HOUR,
            metrics_window_s=None,
        )
    costs = PathCosts()
    costs.install()
    try:
        wrapped, wall_s = run_job(spec, args.seed)
    finally:
        costs.uninstall()
    print(costs.report(f"{spec.name}, seed {args.seed}", wall_s))
    if args.check_digest:
        plain, plain_wall_s = run_job(spec, args.seed)
        if plain != wrapped:
            print("FAIL: the wrapped run's documents differ from an unwrapped run's")
            return 1
        print(f"ok: wrapped == unwrapped (result.json, digest.json); "
              f"unwrapped job {plain_wall_s:.3f} s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
