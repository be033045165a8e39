"""End-to-end and unit tests for the ``repro serve`` HTTP job service.

The expensive guarantees run once against a real ephemeral-port server with
real process-isolated workers (submit → poll → result byte-identical to a
direct :class:`repro.session.Session` run).  Queue mechanics (backpressure,
dedup counters, cancellation, failure detail) run against servers with an
injected in-thread executor so they are fast and fully deterministic.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path
from typing import Dict, Iterator, Optional, Tuple

import pytest

from repro.scenarios.artifacts import DIGEST_FILENAME, run_documents
from repro.scenarios.spec import ScenarioSpec
from repro.service import (
    CANCELLED,
    DONE,
    FAILED,
    JobManager,
    QueueFullError,
    ReproService,
    RunStore,
    ServiceClosedError,
    ServiceConfig,
    canonical_scenario_payload,
    request_digest,
)
from repro.session import Session

#: a deliberately tiny scenario: ~0.3 s end to end, still the full pipeline
TINY_SPEC: Dict[str, object] = {
    "name": "tiny",
    "duration_s": 900.0,
    "num_hosts": 60,
    "num_websites": 4,
    "active_websites": 2,
    "objects_per_website": 20,
    "max_content_overlay_size": 8,
    "query_rate_per_s": 0.5,
}
TINY_SEED = 7

Response = Tuple[int, Dict[str, str], str]


class Client:
    """A minimal urllib client against one service instance."""

    def __init__(self, service: ReproService) -> None:
        self.base = service.url

    def request(self, method: str, path: str, body: Optional[dict] = None) -> Response:
        data = None if body is None else json.dumps(body).encode("utf-8")
        request = urllib.request.Request(
            self.base + path,
            data=data,
            method=method,
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=30) as response:
                return response.status, dict(response.headers), response.read().decode()
        except urllib.error.HTTPError as error:
            return error.code, dict(error.headers), error.read().decode()

    def get_json(self, path: str) -> Tuple[int, dict]:
        status, _, text = self.request("GET", path)
        return status, json.loads(text)

    def poll(self, run_id: str, timeout_s: float = 60.0) -> dict:
        deadline_event = threading.Event()
        for _ in range(int(timeout_s / 0.05)):
            _, document = self.get_json(f"/runs/{run_id}")
            if document["state"] in (DONE, FAILED, CANCELLED):
                return document
            deadline_event.wait(0.05)
        raise AssertionError(f"run {run_id} never reached a terminal state")


def make_service(
    tmp_path: Path,
    executor=None,
    workers: int = 2,
    max_queue: int = 4,
    store_max_bytes: Optional[int] = None,
) -> ReproService:
    config = ServiceConfig(
        port=0,
        workers=workers,
        max_queue=max_queue,
        store_dir=tmp_path / "store",
        store_max_bytes=store_max_bytes,
        timeout_s=None,
    )
    service = ReproService(config, executor=executor)
    service.start()
    return service


@pytest.fixture
def live_service(tmp_path: Path) -> Iterator[ReproService]:
    """A real server with real process-isolated workers."""
    service = make_service(tmp_path)
    yield service
    service.stop(drain=False)


# -- the end-to-end guarantee --------------------------------------------------


class TestEndToEnd:
    def test_submit_poll_result_byte_identical_to_session(
        self, live_service: ReproService
    ) -> None:
        client = Client(live_service)
        status, _, text = client.request(
            "POST", "/runs", {"spec": TINY_SPEC, "seed": TINY_SEED}
        )
        assert status == 202
        submitted = json.loads(text)
        assert submitted["cached"] is False
        run_id = submitted["id"]

        final = client.poll(run_id)
        assert final["state"] == DONE

        status, _, served_digest = client.request("GET", f"/runs/{run_id}/result")
        assert status == 200

        direct = Session.from_spec(
            ScenarioSpec.from_dict(TINY_SPEC), seed=TINY_SEED
        ).run()
        expected = run_documents(direct, scale=1.0)
        assert served_digest == expected[DIGEST_FILENAME]

        # Every artifact download is byte-identical to the shared bundle.
        for kind, filename in (("json", "result.json"), ("csv", "series.csv"),
                               ("md", "summary.md")):
            status, _, text = client.request(
                "GET", f"/runs/{run_id}/artifacts/{kind}"
            )
            assert status == 200
            assert text == expected[filename]

    def test_resubmission_is_cached_and_executes_once(
        self, live_service: ReproService
    ) -> None:
        client = Client(live_service)
        _, _, text = client.request("POST", "/runs", {"spec": TINY_SPEC, "seed": TINY_SEED})
        first = json.loads(text)
        client.poll(first["id"])

        status, _, text = client.request(
            "POST", "/runs", {"spec": TINY_SPEC, "seed": TINY_SEED}
        )
        second = json.loads(text)
        assert status == 200  # no new execution: answered immediately
        assert second["cached"] is True
        assert second["id"] == first["id"]
        assert second["digest"] == first["digest"]

        _, stats = client.get_json("/stats")
        assert stats["cache"]["misses"] == 1
        assert stats["cache"]["dedup_hits"] + stats["cache"]["store_hits"] == 1
        assert stats["jobs"][DONE] == 1  # one job object, one execution

    def test_restart_serves_from_warm_store(self, tmp_path: Path) -> None:
        service = make_service(tmp_path)
        try:
            client = Client(service)
            _, _, text = client.request(
                "POST", "/runs", {"spec": TINY_SPEC, "seed": TINY_SEED}
            )
            run_id = json.loads(text)["id"]
            client.poll(run_id)
            _, _, first_digest = client.request("GET", f"/runs/{run_id}/result")
        finally:
            assert service.stop() is True

        restarted = make_service(tmp_path)
        try:
            client = Client(restarted)
            status, _, text = client.request(
                "POST", "/runs", {"spec": TINY_SPEC, "seed": TINY_SEED}
            )
            document = json.loads(text)
            assert status == 200
            assert document["cached"] is True
            _, stats = client.get_json("/stats")
            assert stats["cache"]["store_hits"] == 1
            _, _, second_digest = client.request(
                "GET", f"/runs/{document['id']}/result"
            )
            assert second_digest == first_digest
        finally:
            restarted.stop(drain=False)

    def test_metrics_listing_and_streaming(self, live_service: ReproService) -> None:
        client = Client(live_service)
        _, _, text = client.request("POST", "/runs", {"spec": TINY_SPEC, "seed": TINY_SEED})
        run_id = json.loads(text)["id"]
        client.poll(run_id)

        status, listing = client.get_json(f"/runs/{run_id}/metrics")
        assert status == 200
        assert "hit_ratio_cumulative" in listing["series"]

        status, headers, body = client.request(
            "GET", f"/runs/{run_id}/metrics?series=hit_ratio_cumulative"
        )
        assert status == 200
        assert headers.get("Transfer-Encoding") == "chunked"
        points = [json.loads(line) for line in body.splitlines() if line]
        assert points
        assert all(set(point) == {"t", "v"} for point in points)

        status, _ = client.get_json(f"/runs/{run_id}/metrics?series=nope")
        assert status == 404


# -- queue mechanics (deterministic in-thread executor) ------------------------


def _payload(seed: int) -> Dict[str, object]:
    return canonical_scenario_payload(
        ScenarioSpec.from_dict(TINY_SPEC), seed=seed
    )


DUMMY_DOCS = {
    "digest.json": '{"ok": true}\n',
    "result.json": '{"systems": {"flower": {"series": {"s": [[0.0, 1.0]]}}}}\n',
    "series.csv": "system,series,time_s,value\n",
    "summary.md": "# run\n",
}


class TestBackpressure:
    def test_full_queue_yields_429_with_retry_after(self, tmp_path: Path) -> None:
        started = threading.Event()
        release = threading.Event()

        def blocking_executor(payload: dict, execution: dict) -> Dict[str, str]:
            started.set()
            release.wait(timeout=30)
            return DUMMY_DOCS

        service = make_service(
            tmp_path, executor=blocking_executor, workers=1, max_queue=2
        )
        try:
            client = Client(service)
            statuses = []
            # 1 running + 2 queued fit; the 4th distinct submission must bounce.
            for seed in range(4):
                status, headers, text = client.request(
                    "POST", "/runs", {"spec": TINY_SPEC, "seed": seed}
                )
                statuses.append(status)
                if seed == 0:  # wait until the worker owns job 0, freeing a slot
                    assert started.wait(timeout=10)
            assert statuses[:3] == [202, 202, 202]
            assert statuses[3] == 429
            assert int(headers["Retry-After"]) >= 1
            assert "retry_after_s" in json.loads(text)
            release.set()
        finally:
            service.stop(drain=False)

    def test_duplicates_dedupe_and_do_not_consume_queue_slots(
        self, tmp_path: Path
    ) -> None:
        release = threading.Event()

        def blocking_executor(payload: dict, execution: dict) -> Dict[str, str]:
            release.wait(timeout=30)
            return DUMMY_DOCS

        service = make_service(
            tmp_path, executor=blocking_executor, workers=1, max_queue=1
        )
        try:
            client = Client(service)
            ids = set()
            # Identical submissions all join one run — also the ones that still
            # send the retired `kernel` flag, which used to split the cache.
            for extra in ({}, {}, {"kernel": True}, {"kernel": False}, {}):
                status, _, text = client.request(
                    "POST", "/runs", {"spec": TINY_SPEC, "seed": 1, **extra}
                )
                assert status in (200, 202)
                ids.add(json.loads(text)["id"])
            assert len(ids) == 1
            _, stats = client.get_json("/stats")
            assert stats["cache"]["misses"] == 1
            assert stats["cache"]["dedup_hits"] == 4
            release.set()
        finally:
            service.stop(drain=False)


class TestFailureIsolation:
    def test_executor_failure_reports_task_error_detail(
        self, tmp_path: Path
    ) -> None:
        def failing_executor(payload: dict, execution: dict) -> Dict[str, str]:
            raise RuntimeError("synthetic scenario failure")

        service = make_service(tmp_path, executor=failing_executor, workers=1)
        try:
            client = Client(service)
            _, _, text = client.request(
                "POST", "/runs", {"spec": TINY_SPEC, "seed": 1}
            )
            run_id = json.loads(text)["id"]
            final = client.poll(run_id)
            assert final["state"] == FAILED
            # The detail is the TaskError text: task label + worker traceback.
            assert "tiny" in final["detail"]
            assert "RuntimeError: synthetic scenario failure" in final["detail"]

            status, document = client.get_json(f"/runs/{run_id}/result")
            assert status == 409
            assert document["state"] == FAILED

            # The server survives the failure and keeps answering.
            status, _ = client.get_json("/healthz")
            assert status == 200
        finally:
            service.stop(drain=False)

    def test_infeasible_seed_fails_with_a_one_line_detail(self, tmp_path: Path) -> None:
        # A real isolated worker: the typed error crosses the pipe as its
        # message, not as a traceback.
        service = make_service(tmp_path, workers=1)
        try:
            client = Client(service)
            _, _, text = client.request(
                "POST", "/runs", {"scenario": "multi-locality", "seed": 7, "scale": 0.25}
            )
            final = client.poll(json.loads(text)["id"])
            assert final["state"] == FAILED
            detail = final["detail"]
            assert "\n" not in detail and "Traceback" not in detail
            assert "infeasible scenario: locality 5 has 4 hosts but 5 directory peers" in detail
        finally:
            service.stop(drain=False)

    def test_sharded_job_runs_inside_a_worker_process(self, tmp_path: Path) -> None:
        # Job workers are daemonic and may not fork a shard pool; the shards
        # run inline there and the digest is the single-process one.
        service = make_service(tmp_path, workers=1)
        try:
            client = Client(service)
            ids = []
            for shards in (1, 2):
                _, _, text = client.request(
                    "POST", "/runs",
                    {"scenario": "paper-default", "scale": 0.1, "shards": shards},
                )
                ids.append(json.loads(text)["id"])
            digests = []
            for run_id in ids:
                assert client.poll(run_id)["state"] == DONE
                digests.append(client.request("GET", f"/runs/{run_id}/result")[2])
            assert digests[0] == digests[1]
        finally:
            service.stop(drain=False)

    def test_sharded_infeasible_seed_fails_with_the_same_detail(
        self, tmp_path: Path
    ) -> None:
        # With shards=2 the shortfall is found inside the shard pool, one
        # process further down; the detail is still the one line.
        service = make_service(tmp_path, workers=1)
        try:
            client = Client(service)
            _, _, text = client.request(
                "POST", "/runs",
                {"scenario": "multi-locality", "seed": 7, "scale": 0.25, "shards": 2},
            )
            final = client.poll(json.loads(text)["id"])
            assert final["state"] == FAILED
            detail = final["detail"]
            assert "\n" not in detail and "Traceback" not in detail
            assert "infeasible scenario: locality 5 has 4 hosts but 5 directory peers" in detail
        finally:
            service.stop(drain=False)

    def test_worker_process_crash_is_contained(self, tmp_path: Path) -> None:
        # Real process isolation: a payload whose execution raises in the
        # child comes back as a failed job with the traceback, not a dead
        # server.  (Unknown request kinds only arise here, by construction.)
        store = RunStore(tmp_path / "store")
        manager = JobManager(store, workers=1, max_queue=4)
        try:
            payload = {"kind": "unknown-kind"}
            job, cached = manager.submit(payload, label="broken")
            assert cached is False
            for _ in range(600):
                if job.state in (DONE, FAILED, CANCELLED):
                    break
                threading.Event().wait(0.05)
            assert job.state == FAILED
            assert "unknown request kind" in (job.detail or "")
        finally:
            manager.shutdown(drain=False)


class TestCancellation:
    def test_cancel_queued_job(self, tmp_path: Path) -> None:
        release = threading.Event()

        def blocking_executor(payload: dict, execution: dict) -> Dict[str, str]:
            release.wait(timeout=30)
            return DUMMY_DOCS

        service = make_service(
            tmp_path, executor=blocking_executor, workers=1, max_queue=4
        )
        try:
            client = Client(service)
            client.request("POST", "/runs", {"spec": TINY_SPEC, "seed": 1})
            _, _, text = client.request(
                "POST", "/runs", {"spec": TINY_SPEC, "seed": 2}
            )
            queued_id = json.loads(text)["id"]
            status, _, text = client.request("DELETE", f"/runs/{queued_id}")
            assert status == 200
            assert json.loads(text)["state"] == CANCELLED
            release.set()
        finally:
            service.stop(drain=False)

    def test_cancelled_digest_is_resubmittable(self, tmp_path: Path) -> None:
        store = RunStore(tmp_path / "store")
        manager = JobManager(
            store, workers=1, max_queue=4, executor=lambda p, e: DUMMY_DOCS
        )
        try:
            digest = request_digest(_payload(1))
            job, _ = manager.submit(_payload(1), label="tiny")
            manager.cancel(job.id)
            if job.state != CANCELLED:  # a worker may have already grabbed it
                pytest.skip("job started before the cancel landed")
            requeued, cached = manager.submit(_payload(1), label="tiny")
            assert cached is False
            assert requeued.digest == digest
        finally:
            manager.shutdown(drain=False)


class TestValidation:
    @pytest.fixture
    def service(self, tmp_path: Path) -> Iterator[ReproService]:
        service = make_service(tmp_path, executor=lambda p, e: DUMMY_DOCS)
        yield service
        service.stop(drain=False)

    def test_scenario_and_spec_are_mutually_exclusive(
        self, service: ReproService
    ) -> None:
        client = Client(service)
        status, _, _ = client.request("POST", "/runs", {})
        assert status == 400
        status, _, _ = client.request(
            "POST", "/runs", {"scenario": "paper-default", "spec": TINY_SPEC}
        )
        assert status == 400

    def test_unknown_scenario_is_400(self, service: ReproService) -> None:
        status, _, text = Client(service).request(
            "POST", "/runs", {"scenario": "no-such-scenario"}
        )
        assert status == 400
        assert "no-such-scenario" in json.loads(text)["error"]

    def test_unknown_spec_field_is_400(self, service: ReproService) -> None:
        bad = dict(TINY_SPEC)
        bad["not_a_field"] = 1
        status, _, text = Client(service).request("POST", "/runs", {"spec": bad})
        assert status == 400
        assert "not_a_field" in json.loads(text)["error"]

    def test_unknown_sweep_is_400(self, service: ReproService) -> None:
        status, _, _ = Client(service).request(
            "POST", "/sweeps", {"sweep": "no-such-sweep"}
        )
        assert status == 400

    def test_malformed_json_is_400(self, service: ReproService) -> None:
        client = Client(service)
        request = urllib.request.Request(
            client.base + "/runs",
            data=b"{ not json",
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400

    def test_unknown_routes_are_404(self, service: ReproService) -> None:
        client = Client(service)
        assert client.request("GET", "/nope")[0] == 404
        assert client.request("GET", "/runs/" + "0" * 16)[0] == 404
        _, _, text = client.request("POST", "/runs", {"spec": TINY_SPEC, "seed": 1})
        run_id = json.loads(text)["id"]
        assert client.request("GET", f"/runs/{run_id}/artifacts/exe")[0] == 404

    def test_result_of_unfinished_run_is_409(self, tmp_path: Path) -> None:
        release = threading.Event()

        def blocking_executor(payload: dict, execution: dict) -> Dict[str, str]:
            release.wait(timeout=30)
            return DUMMY_DOCS

        service = make_service(tmp_path, executor=blocking_executor, workers=1)
        try:
            client = Client(service)
            _, _, text = client.request(
                "POST", "/runs", {"spec": TINY_SPEC, "seed": 1}
            )
            run_id = json.loads(text)["id"]
            status, document = client.get_json(f"/runs/{run_id}/result")
            assert status == 409
            assert document["state"] in ("queued", "running")
            release.set()
        finally:
            service.stop(drain=False)


class TestRegistriesAndStats:
    @pytest.fixture
    def service(self, tmp_path: Path) -> Iterator[ReproService]:
        service = make_service(tmp_path, executor=lambda p, e: DUMMY_DOCS)
        yield service
        service.stop(drain=False)

    def test_healthz(self, service: ReproService) -> None:
        status, document = Client(service).get_json("/healthz")
        assert status == 200
        assert document["status"] == "ok"

    def test_scenarios_lists_the_registry(self, service: ReproService) -> None:
        from repro.scenarios.library import scenario_names

        _, document = Client(service).get_json("/scenarios")
        assert sorted(entry["name"] for entry in document["scenarios"]) == sorted(
            scenario_names()
        )

    def test_sweeps_lists_the_registry(self, service: ReproService) -> None:
        from repro.sweeps.library import sweep_names

        _, document = Client(service).get_json("/sweeps")
        assert sorted(entry["name"] for entry in document["sweeps"]) == sorted(
            sweep_names()
        )

    def test_stats_shape(self, service: ReproService) -> None:
        _, stats = Client(service).get_json("/stats")
        assert stats["workers"] >= 1
        assert stats["max_queue"] == 4
        assert stats["accepting"] is True
        assert set(stats["cache"]) == {
            "dedup_hits", "store_hits", "misses", "hit_ratio"
        }
        assert set(stats["store"]) == {"entries", "bytes", "max_bytes", "evictions"}


class TestDrain:
    def test_drain_finishes_in_flight_work(self, tmp_path: Path) -> None:
        started = threading.Event()
        release = threading.Event()

        def slow_executor(payload: dict, execution: dict) -> Dict[str, str]:
            started.set()
            release.wait(timeout=30)
            return DUMMY_DOCS

        service = make_service(tmp_path, executor=slow_executor, workers=1)
        client = Client(service)
        _, _, text = client.request("POST", "/runs", {"spec": TINY_SPEC, "seed": 1})
        run_id = json.loads(text)["id"]
        assert started.wait(timeout=10)

        stopper = threading.Thread(target=service.stop, daemon=True)
        stopper.start()
        release.set()
        stopper.join(timeout=30)
        assert not stopper.is_alive()
        # The job finished (drain waited for it) and its bundle is durable.
        job = service.manager.get(run_id)
        assert job is not None and job.state == DONE
        assert job.digest in service.store

    def test_sigterm_at_first_healthz_drains_and_exits_zero(self, tmp_path: Path) -> None:
        """`repro serve` handles SIGTERM from the first answered request on.

        The server's stdout is a pipe that is already full, so its start-up
        banner blocks: that holds the process at the point where it answers
        requests but (before the fix) had not yet installed its handlers.
        The port is chosen here because the banner cannot be read yet.
        """
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        read_end, write_end = os.pipe()
        os.set_blocking(write_end, False)
        try:
            while True:
                os.write(write_end, b"." * 4096)
        except BlockingIOError:
            os.set_blocking(write_end, True)
        src = str(Path(__file__).resolve().parents[1] / "src")
        server = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", str(port),
             "--workers", "1", "--store", str(tmp_path / "store")],
            stdout=write_end, stderr=subprocess.STDOUT,
            env=dict(os.environ, PYTHONPATH=src),
        )
        os.close(write_end)
        try:
            deadline = time.monotonic() + 30
            while True:
                try:
                    with urllib.request.urlopen(
                        f"http://127.0.0.1:{port}/healthz", timeout=1
                    ) as response:
                        assert response.status == 200
                        break
                except (urllib.error.URLError, ConnectionError, socket.timeout):
                    assert server.poll() is None, "server died before answering"
                    assert time.monotonic() < deadline, "server never answered /healthz"
            server.send_signal(signal.SIGTERM)
            watchdog = threading.Timer(30, server.kill)  # bounds the read below
            watchdog.start()
            with open(read_end, "rb") as pipe:
                output = pipe.read().lstrip(b".").decode()
            server.wait(timeout=30)
            watchdog.cancel()
        finally:
            if server.poll() is None:
                server.kill()
                server.wait()
        assert server.returncode == 0, output
        assert "received SIGTERM" in output and "drained" in output

    def test_draining_manager_rejects_submissions(self, tmp_path: Path) -> None:
        store = RunStore(tmp_path / "store")
        manager = JobManager(
            store, workers=1, max_queue=4, executor=lambda p, e: DUMMY_DOCS
        )
        manager.shutdown(drain=True)
        with pytest.raises(ServiceClosedError):
            manager.submit(_payload(1), label="tiny")


class TestQueueFullErrorUnit:
    def test_retry_after_is_positive(self, tmp_path: Path) -> None:
        store = RunStore(tmp_path / "store")
        started = threading.Event()
        release = threading.Event()

        def blocking_executor(payload: dict, execution: dict) -> Dict[str, str]:
            started.set()
            release.wait(timeout=30)
            return DUMMY_DOCS

        manager = JobManager(
            store, workers=1, max_queue=1, executor=blocking_executor
        )
        try:
            manager.submit(_payload(1), label="tiny")
            assert started.wait(timeout=10)  # the worker owns job 1
            manager.submit(_payload(2), label="tiny")
            with pytest.raises(QueueFullError) as excinfo:
                manager.submit(_payload(3), label="tiny")
            assert excinfo.value.retry_after_s >= 1
            release.set()
        finally:
            manager.shutdown(drain=False)
