"""Child process of a simulation workload: one fresh interpreter per unit.

Run as ``python sim_child.py '<json request>'`` by :mod:`workloads`; prints
one JSON report on its last stdout line.  A fresh process per unit makes
``peak_rss_mb`` belong to that unit alone and puts interpreter start and
imports inside ``wall_s`` and ``setup_s``, where a user pays for them.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from pathlib import Path


def main(argv: list) -> int:
    request = json.loads(argv[1])
    sys.path[:0] = [request["src"], str(Path(__file__).resolve().parent)]
    from repro.scenarios.artifacts import export_run_bundle

    from calibration import reference_spin
    from simjobs import paper_spec, run_job, standard_batch_specs
    from sizes import Sizes

    # time.monotonic() is CLOCK_MONOTONIC on Linux: one clock for parent and
    # child, so the parent's spawn instant is a valid origin here.
    startup_s = time.monotonic() - request["spawned_at"]
    sizes = Sizes(**request["sizes"])
    kind = request["kind"]
    out_dir = Path(request["out_dir"])
    jobs = []
    spins = []
    report = {"startup_s": startup_s, "jobs": jobs, "spins_s": spins}

    if kind == "standard-batch":
        specs = standard_batch_specs(sizes.batch_names, sizes.batch_scale)
        deadline = request["deadline"]
        # A pass starts while the time box has time left and is then finished,
        # so every scenario is sampled equally often.
        for pass_index in range(sizes.max_passes):
            if pass_index and time.monotonic() >= deadline:
                break
            for spec, seed in zip(specs, request["seeds"]):
                # a spin before every job and one after the last: the
                # parent cannot time its own between two jobs of this process
                spins.append(reference_spin())
                outcome = run_job(spec, seed, scale=sizes.batch_scale)
                jobs.append(_job_row(outcome, pass_index))
        spins.append(reference_spin())
    else:
        spec = paper_spec(sizes)
        shards = 2 if kind == "paper-scale-sharded" else 1
        outcome = run_job(spec, request["seeds"][0], shards=shards, shard_jobs=shards)
        export_run_bundle(outcome.result, out_dir)
        jobs.append(_job_row(outcome, 0))
        stats = outcome.session.last_shard_stats
        if stats is not None:
            report["shard_stats"] = {
                "wall_s": stats.wall_s,
                "num_windows": stats.num_windows,
                "setup_s_per_shard": list(stats.setup_s_per_shard),
                "dispatch_s_per_shard": list(stats.dispatch_s_per_shard),
            }
    report["peak_rss_mb"] = _peak_rss_mb()
    print(json.dumps(report))
    return 0


def _peak_rss_mb() -> float:
    """Peak RSS of this process or, if larger, of its largest reaped descendant.

    Read from ``VmHWM`` because ``ru_maxrss`` of a spawned process also
    covers the moment before ``exec``, when it still maps its parent's
    memory.  The shard workers are forked without ``exec``, so for them
    ``RUSAGE_CHILDREN`` is their own high-water mark.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        own_kb = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
    return max(own_kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def _job_row(outcome, pass_index: int) -> dict:
    metrics = outcome.result.systems["flower"].metrics
    fractions = sum(v for k, v in metrics.items() if k.startswith("fraction_"))
    return {
        "name": outcome.name,
        "pass": pass_index,
        "setup_s": outcome.setup_s,
        "job_s": outcome.job_s,
        "queries": outcome.queries,
        "hit_ratio": metrics["hit_ratio"],
        "outcome_fraction_sum": fractions,
        "result_sha256": hashlib.sha256(
            outcome.documents["result.json"].encode("utf-8")
        ).hexdigest(),
    }


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
