"""Per-run routes of ``repro serve``: which answer wins while a job is unfinished.

A route that does not exist is a ``404`` whatever the job's state; only a real
one can answer ``409`` "not finished yet".  (The other way round,
``tests/test_service_api.py``'s unknown-artifact check raced the job it had
just submitted: 404 once it was done, 409 until then.)
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request
from pathlib import Path
from typing import Dict

from repro.service import ReproService, ServiceConfig

TINY_SPEC = {"name": "tiny", "duration_s": 900.0, "num_hosts": 60}


def status_of(url: str) -> int:
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            return int(response.status)
    except urllib.error.HTTPError as error:
        return int(error.code)


def test_unknown_routes_are_404_and_real_ones_409_while_the_job_runs(tmp_path: Path) -> None:
    release = threading.Event()

    def blocking_executor(_payload: dict, _execution: dict) -> Dict[str, str]:
        release.wait(timeout=30)
        return {"digest.json": "{}\n"}

    config = ServiceConfig(port=0, workers=1, store_dir=tmp_path / "store", timeout_s=None)
    service = ReproService(config, executor=blocking_executor)
    service.start()
    try:
        request = urllib.request.Request(
            service.url + "/runs",
            data=json.dumps({"spec": TINY_SPEC, "seed": 1}).encode("utf-8"),
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=10) as response:
            run = f"{service.url}/runs/{json.loads(response.read())['id']}"
        assert status_of(run + "/artifacts/exe") == 404
        assert status_of(run + "/nope") == 404
        for real in ("/result", "/metrics", "/artifacts/csv"):
            assert status_of(run + real) == 409
        assert status_of(run + "/payload") == 200
    finally:
        release.set()
        service.stop(drain=False)
