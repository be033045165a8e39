#!/usr/bin/env python
"""CI smoke test for ``repro serve`` — the live service end to end.

Boots the real server as a subprocess on an ephemeral port and asserts the
headline service guarantees:

1. ``/healthz`` answers.
2. Two **concurrent identical** submissions execute once: both resolve to
   the same run id, the second answers ``"cached": true``, and ``/stats``
   counts exactly one cache miss for the pair.
3. A third, **distinct** submission executes separately — and all of them
   on the workers the server booted with (``worker_restarts == 0``).
4. The returned result document is byte-identical to a direct
   ``Session.from_spec(...).run()`` of the same spec/seed.
5. Artifact downloads (csv/json/md) match the shared bundle writer.
6. **Repeats** of the requests just run — ``POST /runs`` + ``GET .../result``
   pairs — are all ``200 "cached": true``, byte-identical to the cold body and
   counted by ``/stats`` as dedup / store hits; pairs/s over HTTP and the
   in-process microseconds per repeated ``POST`` and ``GET`` go on record in
   the log (no threshold: a number to compare between CI runs).
7. ``DELETE`` on a **running** job answers ``cancelled`` in under a second
   and costs exactly one worker (``worker_restarts == 1``).
8. Overfilling the queue yields HTTP 429 with a ``Retry-After`` header.
9. SIGTERM drains gracefully: the server finishes in-flight jobs and
   exits 0, leaving a durable run store behind.

Usage: ``python scripts/service_smoke.py [--store DIR]`` (run from the repo
root with ``PYTHONPATH=src``; CI uploads the resulting run store).
"""

from __future__ import annotations

import argparse
import json
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

TINY_SPEC = {
    "name": "smoke-tiny",
    "duration_s": 900.0,
    "num_hosts": 60,
    "num_websites": 4,
    "active_websites": 2,
    "objects_per_website": 20,
    "max_content_overlay_size": 8,
    "query_rate_per_s": 0.5,
}
SEED = 7
REPEAT_PAIRS = 200


def request(base: str, method: str, path: str, body: dict | None = None):
    data = None if body is None else json.dumps(body).encode("utf-8")
    req = urllib.request.Request(
        base + path, data=data, method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=60) as response:
            return response.status, dict(response.headers), response.read().decode()
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), error.read().decode()


def poll_done(
    base: str,
    run_id: str,
    timeout_s: float = 120.0,
    interval_s: float = 0.2,
    states: tuple[str, ...] = ("done", "failed", "cancelled"),
) -> dict:
    deadline = time.monotonic() + timeout_s  # repro: allow(DET002)
    while time.monotonic() < deadline:  # repro: allow(DET002)
        _, _, text = request(base, "GET", f"/runs/{run_id}")
        document = json.loads(text)
        if document["state"] in states:
            return document
        time.sleep(interval_s)
    raise AssertionError(f"run {run_id} did not reach {states} within {timeout_s}s")


def cache_hits(base: str) -> tuple[int, int]:
    cache = json.loads(request(base, "GET", "/stats")[2])["cache"]
    return cache["dedup_hits"] + cache["store_hits"], cache["misses"]


def repeat_in_process(documents: dict) -> None:
    """Microseconds per repeated request inside ``ReproService.handle`` — the
    service's own share of a repeat, without sockets or handler threads."""
    from repro.service import ReproService, ServiceConfig

    bodies = {
        "POST /runs (registered, scale 0.25)":
            {"scenario": "paper-default", "seed": SEED, "scale": 0.25},
        "POST /runs (inline spec)": {"spec": TINY_SPEC, "seed": SEED},
    }
    with tempfile.TemporaryDirectory() as scratch:
        service = ReproService(
            ServiceConfig(workers=1, store_dir=Path(scratch) / "store", timeout_s=None),
            executor=lambda _payload, _execution: documents,
        )
        try:
            requests = []
            for name, body in bodies.items():
                data = json.dumps(body).encode("utf-8")
                _, _, submitted = service.handle("POST", "/runs", {}, data)
                requests.append((name, "POST", "/runs", data))
                job = service.manager.get(submitted["id"])
                deadline = time.monotonic() + 30.0  # repro: allow(DET002)
                while job.state != "done":
                    assert time.monotonic() < deadline  # repro: allow(DET002)
                    time.sleep(0.005)
            requests.append(("GET result", "GET", f"/runs/{job.id}/result", b""))
            costs = []
            for name, method, path, data in requests:
                started = time.perf_counter()  # repro: allow(DET002)
                for _ in range(REPEAT_PAIRS):
                    status, _, answer = service.handle(method, path, {}, data)
                    assert status == 200
                elapsed = time.perf_counter() - started  # repro: allow(DET002)
                costs.append(f"{name} {elapsed / REPEAT_PAIRS * 1e6:.0f} us")
            assert answer.text == documents["digest.json"]
            assert service.manager.stats()["cache"]["misses"] == len(bodies)
        finally:
            service.stop(drain=False)
    print("smoke: in-process repeat costs: " + ", ".join(costs))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--store", type=Path,
                        default=Path(tempfile.mkdtemp()) / "run-store",
                        help="run store directory (default: a temp dir)")
    args = parser.parse_args()

    server = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--workers", "2", "--max-queue", "2", "--store", str(args.store)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    try:
        assert server.stdout is not None
        banner = server.stdout.readline()
        match = re.search(r"http://[\d.]+:(\d+)", banner)
        assert match, f"no listen banner from the server: {banner!r}"
        base = match.group(0)
        print(f"smoke: server up at {base}")

        status, _, _ = request(base, "GET", "/healthz")
        assert status == 200, f"/healthz answered {status}"

        # -- concurrent identical submissions execute once -------------------
        body = {"spec": TINY_SPEC, "seed": SEED}
        results: list[tuple[int, str]] = []

        def submit() -> None:
            status, _, text = request(base, "POST", "/runs", body)
            results.append((status, text))

        threads = [threading.Thread(target=submit) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        documents = [json.loads(text) for _, text in results]
        run_ids = {document["id"] for document in documents}
        assert len(run_ids) == 1, f"identical submissions split: {run_ids}"
        run_id = run_ids.pop()
        cached_flags = sorted(document["cached"] for document in documents)
        assert cached_flags == [False, True], (
            f"expected exactly one dedup of the pair, got cached={cached_flags}"
        )
        print(f"smoke: dedup ok, both submissions -> run {run_id}")

        final = poll_done(base, run_id)
        assert final["state"] == "done", f"run failed: {final.get('detail')}"

        # A resubmission after completion is a pure cache hit.
        status, _, text = request(base, "POST", "/runs", body)
        cached_doc = json.loads(text)
        assert status == 200 and cached_doc["cached"] is True, (
            f"resubmission was not served from cache: {status} {text}"
        )

        _, _, stats_text = request(base, "GET", "/stats")
        stats = json.loads(stats_text)
        assert stats["cache"]["misses"] == 1, (
            f"identical submissions executed more than once: {stats['cache']}"
        )
        assert stats["cache"]["dedup_hits"] + stats["cache"]["store_hits"] >= 2
        print(f"smoke: cache counters ok ({stats['cache']})")

        # -- a distinct submission executes separately ------------------------
        status, _, text = request(
            base, "POST", "/runs", {"spec": TINY_SPEC, "seed": SEED + 1}
        )
        assert status == 202
        other_id = json.loads(text)["id"]
        assert other_id != run_id
        poll_done(base, other_id)
        _, _, stats_text = request(base, "GET", "/stats")
        stats = json.loads(stats_text)
        assert stats["cache"]["misses"] == 2
        assert stats["worker_restarts"] == 0, (
            f"a finished job cost a worker process: {stats['worker_restarts']} restarts"
        )
        print("smoke: distinct submission executed separately, on the boot workers")

        # -- result bytes == a direct Session run -----------------------------
        status, _, served = request(base, "GET", f"/runs/{run_id}/result")
        assert status == 200
        from repro.scenarios.artifacts import ARTIFACT_FILES, DIGEST_FILENAME, run_documents
        from repro.scenarios.spec import ScenarioSpec
        from repro.session import Session

        direct = Session.from_spec(ScenarioSpec.from_dict(TINY_SPEC), seed=SEED).run()
        expected = run_documents(direct, scale=1.0)
        assert served == expected[DIGEST_FILENAME], (
            "served result differs from a direct Session run of the same spec/seed"
        )
        for kind, filename in sorted(ARTIFACT_FILES.items()):
            status, _, text = request(base, "GET", f"/runs/{run_id}/artifacts/{kind}")
            assert status == 200 and text == expected[filename], (
                f"artifact {kind} differs from the shared bundle writer"
            )
        print("smoke: result + artifacts byte-identical to a direct run")

        # -- repeats: a request the server has seen costs a lookup ------------
        runs = {SEED: run_id, SEED + 1: other_id}
        cold = {seed: request(base, "GET", f"/runs/{runs[seed]}/result")[2] for seed in runs}
        hits_before = cache_hits(base)
        repeats_started = time.monotonic()  # repro: allow(DET002)
        for index in range(REPEAT_PAIRS):
            seed = SEED + index % 2
            status, _, text = request(base, "POST", "/runs", {"spec": TINY_SPEC, "seed": seed})
            answer = json.loads(text)
            assert status == 200 and answer["cached"] is True and answer["id"] == runs[seed], (
                f"repeat {index} was not answered from cache: {status} {text}"
            )
            status, _, text = request(base, "GET", f"/runs/{runs[seed]}/result")
            assert status == 200 and text == cold[seed], f"repeat {index}: result bytes moved"
        repeats_s = time.monotonic() - repeats_started  # repro: allow(DET002)
        hits, misses = cache_hits(base)
        assert (hits - hits_before[0], misses - hits_before[1]) == (REPEAT_PAIRS, 0), (
            f"{REPEAT_PAIRS} repeats counted as {hits - hits_before[0]} hits, "
            f"{misses - hits_before[1]} misses"
        )
        print(f"smoke: {REPEAT_PAIRS} repeated pairs all cached and byte-identical, "
              f"{REPEAT_PAIRS / repeats_s:.0f} pairs/s over HTTP")
        repeat_in_process(expected)

        # -- cancelling a running job is prompt and costs one worker ----------
        # A simulated year at a trickle of queries: minutes of wall clock.
        endless = dict(TINY_SPEC, duration_s=86400.0 * 365, query_rate_per_s=0.001)
        status, _, text = request(base, "POST", "/runs", {"spec": endless, "seed": SEED})
        assert status == 202
        endless_id = json.loads(text)["id"]
        poll_done(base, endless_id, timeout_s=30.0, interval_s=0.01, states=("running",))
        cancel_started = time.monotonic()  # repro: allow(DET002)
        status, _, _ = request(base, "DELETE", f"/runs/{endless_id}")
        assert status == 200
        final = poll_done(base, endless_id, timeout_s=30.0, interval_s=0.01)
        cancel_s = time.monotonic() - cancel_started  # repro: allow(DET002)
        assert final["state"] == "cancelled", f"DELETE left the run {final['state']}"
        assert cancel_s < 1.0, f"cancelling a running job took {cancel_s:.2f}s"
        _, _, stats_text = request(base, "GET", "/stats")
        restarts = json.loads(stats_text)["worker_restarts"]
        assert restarts == 1, f"one cancelled job, {restarts} worker restarts"
        print(f"smoke: running job cancelled in {cancel_s:.2f}s, one worker replaced")

        # -- backpressure: overfill the queue ---------------------------------
        # Slower distinct jobs (longer simulated horizon, a few seconds of
        # wall clock each): 2 run + 2 queue; one more must bounce with 429.
        slow = dict(TINY_SPEC)
        slow["duration_s"] = 10800.0
        saw_429 = False
        retry_after = None
        for index in range(8):
            status, headers, _ = request(
                base, "POST", "/runs", {"spec": slow, "seed": 1000 + index}
            )
            if status == 429:
                saw_429 = True
                retry_after = headers.get("Retry-After")
                break
            assert status == 202, f"unexpected submit status {status}"
        assert saw_429, "the queue never pushed back with 429"
        assert retry_after is not None and int(retry_after) >= 1
        print(f"smoke: backpressure ok (429, Retry-After: {retry_after})")

        # -- graceful drain on SIGTERM ----------------------------------------
        # The accepted slow jobs are still in flight; the drain must finish
        # them (not drop them) and only then exit 0.
        server.send_signal(signal.SIGTERM)
        exit_code = server.wait(timeout=300)
    finally:
        if server.poll() is None:
            server.kill()
            server.wait(timeout=30)
    assert exit_code == 0, f"server exited {exit_code} after SIGTERM"
    print("smoke: graceful drain ok (exit 0)")

    index_path = args.store / "index.json"
    assert index_path.is_file(), "run store index missing after shutdown"
    entries = json.loads(index_path.read_text())["entries"]
    assert len(entries) >= 2, f"expected >= 2 stored runs, found {len(entries)}"
    print(f"smoke: run store durable ({len(entries)} bundles at {args.store})")
    print("service smoke: OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
