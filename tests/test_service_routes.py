"""Per-run routes of ``repro serve``: which answer wins while a job is unfinished.

A route that does not exist is a ``404`` whatever the job's state; only a real
one can answer ``409`` "not finished yet".  (The other way round,
``tests/test_service_api.py``'s unknown-artifact check raced the job it had
just submitted: 404 once it was done, 409 until then.)
"""

from __future__ import annotations

import json
import socket
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


SERIES_RESULT = json.dumps(
    {"systems": {"flower": {"series": {"hit_ratio": [[0.0, 0.1], [900.0, 0.5], [1800.0, 0.7]]}}}}
)


def raw_exchange(service: ReproService, method: str, path: str) -> bytes:
    """Everything the server writes for one request, until it closes."""
    request = f"{method} {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"
    with socket.create_connection(("127.0.0.1", service.port), timeout=10) as connection:
        connection.sendall(request.encode("ascii"))
        received = b""
        while chunk := connection.recv(65536):
            received += chunk
    return received


def test_head_sends_the_headers_of_the_get_and_no_body(tmp_path: Path) -> None:
    def executor(_payload: dict, _execution: dict) -> Dict[str, str]:
        return {"digest.json": '{"pinned": true}\n', "result.json": SERIES_RESULT}

    config = ServiceConfig(port=0, workers=1, store_dir=tmp_path / "store", timeout_s=None)
    service = ReproService(config, executor=executor)
    service.start()
    try:
        job, _ = service.manager.submit({"kind": "scenario", "seed": 1}, label="tiny")
        for _ in range(2000):
            if job.state == "done":
                break
            threading.Event().wait(0.005)
        assert job.state == "done"
        run = f"/runs/{job.id}"

        def dateless(head: bytes) -> bytes:
            return b"\r\n".join(
                line for line in head.split(b"\r\n") if not line.startswith(b"Date:")
            )

        # A streamed route (its HEAD used to send the whole chunked body too).
        streamed = raw_exchange(service, "GET", run + "/metrics?series=hit_ratio")
        head, _, body = streamed.partition(b"\r\n\r\n")
        assert b"Transfer-Encoding: chunked" in head and body.endswith(b"0\r\n\r\n")
        assert body.count(b'"t"') == 3
        answer = raw_exchange(service, "HEAD", run + "/metrics?series=hit_ratio")
        assert answer.endswith(b"\r\n\r\n") and answer.count(b"\r\n\r\n") == 1
        assert dateless(answer[:-4]) == dateless(head)

        # A sized route keeps the Content-Length of its GET.
        sized = raw_exchange(service, "GET", run + "/result")
        head, _, body = sized.partition(b"\r\n\r\n")
        assert body == b'{"pinned": true}\n'
        assert f"Content-Length: {len(body)}".encode("ascii") in head
        answer = raw_exchange(service, "HEAD", run + "/result")
        assert answer.endswith(b"\r\n\r\n") and dateless(answer[:-4]) == dateless(head)
    finally:
        service.stop(drain=False)


def test_a_content_length_that_is_not_a_size_is_400_and_closes(tmp_path: Path) -> None:
    def executor(_payload: dict, _execution: dict) -> Dict[str, str]:
        return {"digest.json": "{}\n"}

    config = ServiceConfig(port=0, workers=1, store_dir=tmp_path / "store", timeout_s=None)
    service = ReproService(config, executor=executor)
    service.start()
    try:
        for declared in ("ten", "-5"):
            # No "Connection: close": the server must close by itself, since
            # the end of the body is unknown.
            request = (
                f"POST /runs HTTP/1.1\r\nHost: test\r\nContent-Length: {declared}\r\n\r\n{{}}"
            )
            with socket.create_connection(("127.0.0.1", service.port), timeout=10) as connection:
                connection.sendall(request.encode("ascii"))
                received = b""
                while chunk := connection.recv(65536):
                    received += chunk
            head, _, body = received.partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 400 "), (declared, head)
            assert json.loads(body) == {"error": f"invalid Content-Length {declared!r}"}
    finally:
        service.stop(drain=False)
