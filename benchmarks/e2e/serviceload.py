"""The ``service-mixed`` workload: a real ``repro serve`` under closed-loop load.

The server is the program's own CLI in a subprocess
(``python -m repro.cli serve --port 0 --workers 1 --max-queue 16 --store
TMP``).  Load comes from this process: ``CLIENTS`` threads, each sending its
next request only after the previous one completed (closed loop), each
request on a fresh ``http.client`` connection (no keep-alive, so accept and
handler-thread spawn are part of every request).

*Cold* phase: distinct submissions, each ``POST /runs`` -> poll ``GET
/runs/{id}`` every 10 ms -> ``GET /runs/{id}/result``.  Then SIGTERM (the
server must drain and exit 0) and a reboot on the same store.  *Hot* phase:
request pairs (``POST /runs`` answering 200 ``cached: true`` + ``GET
.../result``) round-robin over the cold digests: the first touch of each is
a store hit, the rest are dedup hits.
"""

from __future__ import annotations

import http.client
import json
import os
import select
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from calibration import Calibration

CLIENTS = 2
POLL_INTERVAL_S = 0.010
BOOT_TIMEOUT_S = 30.0
#: consecutive blocks a phase runs as (fewer when a phase is tiny)
PHASE_BLOCKS = 10
MIN_BLOCK_OPERATIONS = 10
#: grace between SIGTERM and SIGKILL when stopping a server
STOP_GRACE_S = 30.0
#: ``repro serve`` installs its SIGTERM handler just *after* it starts
#: answering requests; a signal inside that window kills it undrained.  That
#: race is the program's, not something this workload measures, so a server
#: is never signalled sooner than this after its first /healthz answer.
MIN_UPTIME_BEFORE_SIGTERM_S = 0.25
JOB_SCENARIO = "paper-default"
JOB_SCALE = 0.25


class ServiceFailure(RuntimeError):
    """The server could not be booted, driven or drained."""


#: what fails one client operation (and only that one): an unexpected status,
#: a socket or HTTP-framing error, an unparseable or incomplete JSON answer
CLIENT_ERRORS = (ServiceFailure, OSError, http.client.HTTPException, ValueError, KeyError)


def job_request(job_seed: int) -> Dict[str, object]:
    """The submission body of one distinct job."""
    return {"scenario": JOB_SCENARIO, "seed": job_seed, "scale": JOB_SCALE}


class Server:
    """One ``repro serve`` subprocess, booted in ``__enter__``, always torn down."""

    def __init__(self, src: Path, store: Path, log_dir: Path) -> None:
        self._src = src
        self._store = store
        self._stderr_path = log_dir / "server.stderr"
        self.process: Optional[subprocess.Popen] = None
        self.port = 0
        #: spawn -> first 200 from /healthz, seconds
        self.boot_s = 0.0
        self._healthy_at = 0.0
        self.exit_code: Optional[int] = None
        self.drain_s = 0.0
        self.peak_rss_mb = 0.0

    def __enter__(self) -> "Server":
        env = dict(os.environ, PYTHONPATH=str(self._src))
        command = [
            sys.executable, "-m", "repro.cli", "serve", "--port", "0", "--workers", "1",
            "--max-queue", "16", "--store", str(self._store),
        ]
        started = time.perf_counter()
        with open(self._stderr_path, "wb") as stderr:
            self.process = subprocess.Popen(
                command, env=env, stdout=subprocess.PIPE, stderr=stderr
            )
        try:
            self.port = self._read_port(started + BOOT_TIMEOUT_S)
            while True:
                try:
                    status, _body = request(self.port, "GET", "/healthz")
                    if status == 200:
                        break
                except OSError:
                    pass
                if time.perf_counter() > started + BOOT_TIMEOUT_S:
                    raise ServiceFailure("server never answered /healthz" + self._stderr_tail())
                time.sleep(0.002)
            self._healthy_at = time.perf_counter()
            self.boot_s = self._healthy_at - started
        except BaseException:
            self.stop()
            raise
        return self

    def __exit__(self, *_exc: object) -> None:
        self.stop()

    def _read_port(self, deadline: float) -> int:
        """Parse the port out of the server's "listening on" banner line."""
        fd = self.process.stdout.fileno()
        banner = b""
        while b"\n" not in banner:
            ready, _, _ = select.select([fd], [], [], max(0.0, deadline - time.perf_counter()))
            chunk = os.read(fd, 4096) if ready else b""
            if not chunk:
                # EOF (the server exited: typically a failure to bind) or timeout.
                raise ServiceFailure("server printed no listening banner" + self._stderr_tail())
            banner += chunk
        line = banner.split(b"\n", 1)[0].decode("utf-8", "replace")
        try:
            return int(line.split("http://", 1)[1].split(" ", 1)[0].rsplit(":", 1)[1])
        except (IndexError, ValueError):
            raise ServiceFailure(f"unparseable server banner {line!r}") from None

    def _stderr_tail(self) -> str:
        try:
            text = self._stderr_path.read_text(encoding="utf-8", errors="replace").strip()
        except OSError:
            return ""
        return f"; server stderr:\n{text[-2000:]}" if text else ""

    def stop(self) -> None:
        """SIGTERM, wait for the drain, SIGKILL after the grace period."""
        process = self.process
        if process is None or self.exit_code is not None:
            return
        self.peak_rss_mb = _vm_hwm_mb(process.pid) or self.peak_rss_mb
        signal_after = self._healthy_at + MIN_UPTIME_BEFORE_SIGTERM_S
        time.sleep(max(0.0, signal_after - time.perf_counter()))
        started = time.perf_counter()
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=STOP_GRACE_S)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
        self.drain_s = time.perf_counter() - started
        self.exit_code = process.returncode
        if process.stdout is not None:
            process.stdout.close()


def _vm_hwm_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def request(
    port: int, method: str, path: str, body: Optional[bytes] = None
) -> Tuple[int, bytes]:
    """One HTTP request on a fresh connection; the whole body is read."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60.0)
    try:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


@dataclass
class Sample:
    """One completed client operation (a cold job or a hot pair)."""

    index: int
    started: float
    ended: float
    body: bytes = b""
    #: which consecutive block of its phase the operation ran in
    block: int = 0
    #: server-reported phases of a cold job (from the status document), seconds
    queue_wait_s: float = 0.0
    job_run_s: float = 0.0

    @property
    def latency_s(self) -> float:
        return self.ended - self.started


@dataclass
class PhaseResult:
    samples: List[Sample] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    #: spin groups taken before each block and after the last
    spin_groups: List[int] = field(default_factory=list)


def run_phase(
    count: int,
    operation: Callable[[int], Sample],
    blocks: int,
    calibration: Calibration,
) -> PhaseResult:
    """Run ``operation(i)`` for ``i < count`` from ``CLIENTS`` closed-loop threads.

    The operations run as ``blocks`` consecutive blocks; this thread takes a
    group of reference spins before each block and after the last, while the
    clients idle.
    """
    result = PhaseResult()
    lock = threading.Lock()

    def client(block: int, cursor: Iterator[int]) -> None:
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            try:
                sample = operation(index)
            except CLIENT_ERRORS as error:
                with lock:
                    result.failures.append(f"op {index}: {error!r}")
                continue
            sample.block = block
            with lock:
                result.samples.append(sample)

    for block in range(blocks):
        result.spin_groups.append(calibration.spin())
        cursor = iter(range(block * count // blocks, (block + 1) * count // blocks))
        threads = [
            threading.Thread(target=client, args=(block, cursor), name=f"client-{n}")
            for n in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    result.spin_groups.append(calibration.spin())
    result.samples.sort(key=lambda sample: sample.ended)
    return result


def _expect(status: int, wanted: Tuple[int, ...], what: str) -> None:
    if status not in wanted:
        raise ServiceFailure(f"{what}: HTTP {status}")


def cold_job(port: int, job_seeds: Sequence[int]) -> Callable[[int], Sample]:
    """Submit -> poll -> fetch of a request the server has never seen."""

    def operation(index: int) -> Sample:
        body = json.dumps(job_request(job_seeds[index])).encode("utf-8")
        started = time.perf_counter()
        status, raw = request(port, "POST", "/runs", body)
        _expect(status, (202,), "cold POST /runs")
        run_id = json.loads(raw)["id"]
        while True:
            status, raw = request(port, "GET", f"/runs/{run_id}")
            _expect(status, (200,), "GET /runs/{id}")
            document = json.loads(raw)
            if document["state"] == "done":
                break
            if document["state"] != "queued" and document["state"] != "running":
                raise ServiceFailure(f"job {run_id} ended {document['state']}")
            time.sleep(POLL_INTERVAL_S)
        status, result_body = request(port, "GET", f"/runs/{run_id}/result")
        _expect(status, (200,), "GET /runs/{id}/result")
        ended = time.perf_counter()
        return Sample(
            index,
            started,
            ended,
            result_body,
            queue_wait_s=document["started_at"] - document["submitted_at"],
            job_run_s=document["finished_at"] - document["started_at"],
        )

    return operation


def hot_pair(
    port: int, job_seeds: Sequence[int], cold_bodies: Dict[int, bytes]
) -> Callable[[int], Sample]:
    """Re-submit a known request (200, cached) and fetch its result."""
    distinct = len(job_seeds)

    def operation(index: int) -> Sample:
        target = index % distinct
        body = json.dumps(job_request(job_seeds[target])).encode("utf-8")
        started = time.perf_counter()
        status, raw = request(port, "POST", "/runs", body)
        _expect(status, (200,), "hot POST /runs")
        document = json.loads(raw)
        if not document["cached"]:
            raise ServiceFailure(f"hot submission {index} was not served from cache")
        status, result_body = request(port, "GET", f"/runs/{document['id']}/result")
        _expect(status, (200,), "hot GET result")
        ended = time.perf_counter()
        if result_body != cold_bodies[target]:
            raise ServiceFailure(f"hot result {index} differs from the cold body")
        return Sample(index, started, ended)

    return operation


def cache_counters(port: int) -> Dict[str, float]:
    status, raw = request(port, "GET", "/stats")
    _expect(status, (200,), "GET /stats")
    document = json.loads(raw)
    counters = dict(document["cache"])
    counters["store_bytes"] = document["store"]["bytes"]
    return counters


@dataclass
class ServiceRun:
    """Everything one cold + hot cycle observed."""

    cold: PhaseResult
    hot: PhaseResult
    #: boot -> /healthz seconds of each timed boot on the filled store
    boots_s: List[float]
    #: spin groups taken before the first timed boot and after each one
    boot_spin_groups: List[int]
    calibration: Calibration
    peak_rss_mb: float
    drains_s: List[float]
    http_floor_s: List[float]
    cold_counters: Dict[str, float]
    hot_counters: Dict[str, float]
    problems: List[str]


def phase_block_count(operations: int) -> int:
    return max(1, min(PHASE_BLOCKS, operations // MIN_BLOCK_OPERATIONS))


def run_service(
    src: Path, scratch: Path, job_seeds: Sequence[int], hot_pairs: int, boots: int
) -> ServiceRun:
    """Boot, one cold job per seed, drain, timed reboots, hot phase, drain."""
    store = scratch / "store"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    servers: List[Server] = []  # every server booted; each is stopped on leaving its block
    calibration = Calibration()

    def boot() -> Server:
        servers.append(Server(src, store, scratch))
        return servers[-1]

    try:
        with boot() as server:
            cold = run_phase(
                len(job_seeds),
                cold_job(server.port, job_seeds),
                phase_block_count(len(job_seeds)),
                calibration,
            )
            cold_counters = cache_counters(server.port)
        bodies = {sample.index: sample.body for sample in cold.samples}
        boot_spin_groups = [calibration.spin()]
        for _ in range(boots - 1):
            with boot():
                pass  # a timed boot on the filled store: up, healthy, drained
            boot_spin_groups.append(calibration.spin())
        with boot() as server:
            boot_spin_groups.append(calibration.spin())
            floor = []
            for _ in range(20):
                started = time.perf_counter()
                request(server.port, "GET", "/healthz")
                floor.append(time.perf_counter() - started)
            if len(bodies) == len(job_seeds):
                hot = run_phase(
                    hot_pairs,
                    hot_pair(server.port, job_seeds, bodies),
                    phase_block_count(hot_pairs),
                    calibration,
                )
            else:
                hot = PhaseResult(failures=["a cold job failed; hot phase skipped"])
            hot_counters = cache_counters(server.port)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return ServiceRun(
        cold=cold,
        hot=hot,
        boots_s=[server.boot_s for server in servers[1:]],
        boot_spin_groups=boot_spin_groups,
        calibration=calibration,
        peak_rss_mb=max(server.peak_rss_mb for server in servers),
        drains_s=[server.drain_s for server in servers],
        http_floor_s=floor,
        cold_counters=cold_counters,
        hot_counters=hot_counters,
        problems=[
            f"server {index} exited {server.exit_code} after SIGTERM"
            for index, server in enumerate(servers)
            if server.exit_code != 0
        ],
    )
