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
from typing import Dict, Tuple

import pytest

from repro.scenarios.spec import ScenarioSpec
from repro.service import ReproService, ServiceConfig

TINY_SPEC = {"name": "tiny", "duration_s": 900.0, "num_hosts": 60}

#: inline-spec overrides that used to be accepted: the first five queued a run
#: that never ended, the rest failed or misbehaved only at run time
UNRUNNABLE_SPECS: Dict[str, Dict[str, object]] = {
    "rate-nan": {"query_rate_per_s": float("nan")},
    "rate-inf": {"query_rate_per_s": float("inf")},
    "duration-inf": {"duration_s": float("inf")},
    "gossip-period-nan": {"gossip_period_s": float("nan")},
    "phase-rate-nan": {"program": [{"duration_s": None, "rate_multiplier": float("nan")}]},
    "churn-rate-inf": {"churn": {"content_failures_per_hour": float("inf")}},
    "model-param-nan": {
        "churn_model": {"name": "poisson", "params": {"tick_period_s": float("nan")}}
    },
    "weights-all-zero": {"locality_weights": [0.0, 0.0, 0.0]},
    "weights-negative": {"locality_weights": [-1.0, 1.0, 1.0]},
    "zipf-alpha-negative": {"zipf_alpha": -0.5},
    # a fault aimed at a locality the spec lacks ran and injected nothing
    "outage-locality-missing": {
        "fault_model": {"name": "correlated-locality", "params": {"locality": 7}}
    },
    "partition-locality-missing": {
        "fault_model": {"name": "locality-partition", "params": {"localities": [7]}}
    },
    "cascade-locality-missing": {
        "fault_model": {"name": "cascading-directory-failures", "params": {"locality": 7}}
    },
}

#: inline specs of the wrong shape: the first three answered 500 (an
#: AttributeError out of the handler), the rest were queued and ran or failed
#: in the worker; each maps to the field its 400 must name
MALFORMED_SPECS: Dict[str, Tuple[str, Dict[str, object]]] = {
    "churn-list": ("churn", {"churn": [1, 2]}),
    "churn-model-number": ("churn_model", {"churn_model": 5}),
    "fault-model-list": ("fault_model", {"fault_model": [1]}),
    "view-size-fraction": ("view_size", {"view_size": 50.5}),
    "num-hosts-fraction": ("num_hosts", {"num_hosts": 600.5}),
    "seed-string": ("seed", {"seed": "42"}),
    "shards-bool": ("shards", {"shards": True}),
    "duration-bool": ("duration_s", {"duration_s": True}),
    "name-number": ("name", {"name": 5}),
    "compact-metrics-string": ("compact_metrics", {"compact_metrics": "no"}),
    "locality-weight-bool": ("locality_weights", {"locality_weights": [True, 1, 1]}),
    "churn-rate-bool": (
        "content_failures_per_hour", {"churn": {"content_failures_per_hour": True}}
    ),
    "phase-rotation-bool": ("hotspot_rotation", {"program": [{"hotspot_rotation": True}]}),
}

#: request numbers that answered 500, or queued a job that could only fail
#: (or, with a NaN deadline, could never time out)
UNRUNNABLE_REQUESTS: Dict[str, Tuple[str, Dict[str, object]]] = {
    "run-scale-inf": ("/runs", {"scenario": "paper-default", "scale": float("inf")}),
    "run-scale-huge": ("/runs", {"scenario": "paper-default", "scale": 1e308}),
    "run-scale-huge-int": ("/runs", {"scenario": "paper-default", "scale": 10**400}),
    "sweep-scale-nan": ("/sweeps", {"sweep": "ablation-churn", "scale": float("nan")}),
    "run-timeout-nan": ("/runs", {"scenario": "paper-default", "timeout_s": float("nan")}),
    "run-timeout-inf": ("/runs", {"scenario": "paper-default", "timeout_s": float("inf")}),
    "run-timeout-negative": ("/runs", {"scenario": "paper-default", "timeout_s": -1}),
    "run-timeout-zero": ("/runs", {"scenario": "paper-default", "timeout_s": 0}),
    "sweep-timeout-nan": ("/sweeps", {"sweep": "ablation-churn", "timeout_s": float("nan")}),
    "run-shards-inseparable": ("/runs", {"scenario": "heavy-churn", "shards": 2}),
    # jobs is not in the request digest: a doomed job would also take down
    # a well-formed identical request that joined it while it was queued
    "sweep-jobs-zero": ("/sweeps", {"sweep": "ablation-churn", "scale": 0.05, "jobs": 0}),
    "sweep-jobs-negative": ("/sweeps", {"sweep": "ablation-churn", "scale": 0.05, "jobs": -1}),
}


def post(service: ReproService, path: str, document: Dict[str, object]) -> Tuple[int, bytes]:
    # json.dumps writes NaN / Infinity literals, which json.loads accepts.
    request = urllib.request.Request(
        service.url + path,
        data=json.dumps(document).encode("utf-8"),
        method="POST",
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return int(response.status), response.read()
    except urllib.error.HTTPError as error:
        return int(error.code), error.read()


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


@pytest.mark.parametrize("case", sorted(UNRUNNABLE_SPECS))
def test_an_unrunnable_spec_is_rejected_by_from_dict(case: str) -> None:
    with pytest.raises(ValueError):
        ScenarioSpec.from_dict({**TINY_SPEC, **UNRUNNABLE_SPECS[case]})


def test_an_unrunnable_inline_spec_is_400_and_queues_nothing(tmp_path: Path) -> None:
    def executor(_payload: dict, _execution: dict) -> Dict[str, str]:
        return {"digest.json": "{}\n"}

    config = ServiceConfig(port=0, workers=1, store_dir=tmp_path / "store", timeout_s=None)
    service = ReproService(config, executor=executor)
    service.start()
    try:
        for case, overrides in UNRUNNABLE_SPECS.items():
            status, body = post(service, "/runs", {"spec": {**TINY_SPEC, **overrides}})
            assert status == 400, case
            assert json.loads(body)["error"].startswith("invalid run request: "), case
        assert service.manager.jobs() == []
    finally:
        service.stop(drain=False)


@pytest.fixture(scope="module")
def idle_service(tmp_path_factory: pytest.TempPathFactory):
    def executor(_payload: dict, _execution: dict) -> Dict[str, str]:
        return {"digest.json": "{}\n"}

    store = tmp_path_factory.mktemp("idle") / "store"
    service = ReproService(
        ServiceConfig(port=0, workers=1, store_dir=store, timeout_s=None), executor=executor
    )
    service.start()
    yield service
    service.stop(drain=False)


@pytest.mark.parametrize("case", sorted(MALFORMED_SPECS))
def test_a_malformed_inline_spec_is_400_naming_the_field(
    idle_service: ReproService, case: str
) -> None:
    field, overrides = MALFORMED_SPECS[case]
    status, body = post(idle_service, "/runs", {"spec": {**TINY_SPEC, **overrides}})
    assert status == 400, body
    error = json.loads(body)["error"]
    assert error.startswith("invalid run request: ") and field in error, error
    assert idle_service.manager.jobs() == []


def test_an_int_is_a_valid_float_field() -> None:
    spec = ScenarioSpec.from_dict({"name": "x", "duration_s": 900})
    assert spec.duration_s == 900


def test_a_body_too_large_is_413_and_closes(idle_service: ReproService) -> None:
    # The oversized body is never read: before the fix its first bytes were
    # parsed as a second request on the same connection (here a GET that
    # was answered too).
    request = (
        "POST /runs HTTP/1.1\r\nHost: test\r\n"
        f"Content-Length: {5 * 1024 * 1024}\r\n\r\n"
        "GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n"
    )
    with socket.create_connection(("127.0.0.1", idle_service.port), timeout=10) as connection:
        connection.sendall(request.encode("ascii"))
        received = b""
        while chunk := connection.recv(65536):
            received += chunk
    assert received.count(b"HTTP/1.1 ") == 1, received
    head, _, body = received.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 413 ") and b"Connection: close" in head, head
    assert json.loads(body) == {"error": f"request body too large ({5 * 1024 * 1024} bytes)"}


def test_an_unrunnable_request_number_is_400_and_queues_nothing(tmp_path: Path) -> None:
    def executor(_payload: dict, _execution: dict) -> Dict[str, str]:
        return {"digest.json": "{}\n"}

    config = ServiceConfig(port=0, workers=1, store_dir=tmp_path / "store", timeout_s=None)
    service = ReproService(config, executor=executor)
    service.start()
    try:
        for case, (path, document) in UNRUNNABLE_REQUESTS.items():
            status, body = post(service, path, document)
            assert status == 400, (case, body)
            kind = "run" if path == "/runs" else "sweep"
            assert json.loads(body)["error"].startswith(f"invalid {kind} request: "), case
        assert service.manager.jobs() == []
        status, body = post(service, "/runs", UNRUNNABLE_REQUESTS["run-shards-inseparable"][1])
        assert "not website-separable" in json.loads(body)["error"]
        for case in ("sweep-jobs-zero", "sweep-jobs-negative"):
            status, body = post(service, "/sweeps", UNRUNNABLE_REQUESTS[case][1])
            assert "'jobs' must be positive" in json.loads(body)["error"], case
        assert service.manager.jobs() == []
        # The checks stop at what cannot run: these are queued.
        for path, document in (
            ("/runs", {"scenario": "paper-default", "shards": 2, "timeout_s": 0.5}),
            ("/runs", {"scenario": "heavy-churn", "shards": 1, "scale": 1e-3}),
            ("/sweeps", {"sweep": "ablation-churn", "scale": 0.1, "timeout_s": 600}),
        ):
            assert post(service, path, document)[0] in (200, 202), document
        assert len(service.manager.jobs()) == 3
    finally:
        service.stop(drain=False)
