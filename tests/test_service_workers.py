"""The warm-worker lifecycle of ``repro serve``: every transition, real processes.

A worker's life is a token game — *idle → busy → idle*, or *→ dead →
replaced* — and each test here fails when one transition is lost: a job that
returns or raises leaves the **same** process idle; a cancel, a timeout or a
kill ends the process, fails only that job and puts a **different** process
in its place; shutdown, SIGTERM and the death of the server each leave no
process behind.  Jobs are tiny inline specs; the "long" one simulates a year
and only exists to be interrupted.
"""

from __future__ import annotations

import errno
import json
import multiprocessing
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import pytest

from repro.scenarios.artifacts import DIGEST_FILENAME, RESULT_FILENAME, run_documents
from repro.scenarios.spec import ScenarioSpec
from repro.service import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    Job,
    JobManager,
    QueueFullError,
    RunStore,
    canonical_scenario_payload,
)
from repro.service.workers import (
    IDLE_POLL_S,
    JobCancelled,
    JobWorker,
    WorkerDied,
    _worker_main,
)
from repro.session import Session

SRC = str(Path(__file__).resolve().parents[1] / "src")

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
#: a simulated year at a trickle of queries: minutes of wall clock, a flat
#: few MB — it is always cancelled, timed out or killed long before it ends
LONG_SPEC: Dict[str, object] = dict(
    TINY_SPEC, name="long", duration_s=86400.0 * 365, query_rate_per_s=0.001
)
TERMINAL = (DONE, FAILED, CANCELLED)


def now() -> float:
    return time.monotonic()  # repro: allow(DET002)


def wait_until(condition: Callable[[], bool], what: str, timeout_s: float = 30.0) -> None:
    deadline = now() + timeout_s
    while not condition():
        assert now() < deadline, f"timed out waiting for {what}"
        time.sleep(0.005)


def payload(seed: int, spec: Dict[str, object] = TINY_SPEC) -> Dict[str, object]:
    return canonical_scenario_payload(ScenarioSpec.from_dict(spec), seed=seed)


def finish(job: Job, timeout_s: float = 30.0) -> Job:
    wait_until(lambda: job.state in TERMINAL, f"job {job.id} to finish", timeout_s)
    return job


HAVE_PROC = Path("/proc/self/stat").exists()


def proc_stat(pid: int) -> Optional[List[str]]:
    """``/proc/PID/stat`` from the state field on (``[state, ppid, ...]``)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None  # gone (possibly while we were looking)
    return stat.rsplit(")", 1)[1].split()  # comm may hold spaces and parentheses


def pid_exists(pid: int) -> bool:
    """Whether ``pid`` is a live process (a zombie nobody reaped yet is not)."""
    if HAVE_PROC:
        fields = proc_stat(pid)
        return fields is not None and fields[0] != "Z"
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def worker_pid(manager: JobManager) -> int:
    (worker,) = manager._pool
    assert worker.pid is not None
    return worker.pid


@pytest.fixture
def manager(tmp_path: Path) -> Iterator[JobManager]:
    """One real worker process behind a fresh store."""
    manager = JobManager(RunStore(tmp_path / "store"), workers=1, max_queue=8)
    yield manager
    manager.shutdown(drain=False)


# -- JobWorker alone: the token game with a function that tells its pid --------


def report_pid(request: Dict[str, Any], _execution: Dict[str, Any]) -> Dict[str, str]:
    if request.get("raise"):
        raise RuntimeError("synthetic failure")
    if request.get("exit") is not None:
        os._exit(int(request["exit"]))
    if request.get("sleep"):
        time.sleep(float(request["sleep"]))
    return {"pid": str(os.getpid())}


class TestJobWorker:
    @pytest.fixture
    def worker(self) -> Iterator[JobWorker]:
        worker = JobWorker(report_pid)
        yield worker
        worker.stop()

    @staticmethod
    def call(
        worker: JobWorker,
        request: Dict[str, object],
        cancelled: Optional[threading.Event] = None,
    ) -> Tuple[str, object]:
        return worker.run(request, {}, cancelled or threading.Event(), None, now)

    def test_idle_busy_idle_in_one_process(self, worker: JobWorker) -> None:
        replies = [self.call(worker, {}) for _ in range(3)]
        assert replies == [("ok", {"pid": str(worker.pid)})] * 3
        assert worker.restarts == 0

    def test_a_raising_job_is_an_error_reply_from_the_same_process(
        self, worker: JobWorker
    ) -> None:
        pid = worker.pid
        status, text = self.call(worker, {"raise": True})
        assert status == "error"
        assert "Traceback" in str(text) and "RuntimeError: synthetic failure" in str(text)
        assert self.call(worker, {}) == ("ok", {"pid": str(pid)})
        assert worker.restarts == 0

    def test_a_dying_worker_fails_that_job_and_is_replaced(self, worker: JobWorker) -> None:
        first = worker.pid
        with pytest.raises(WorkerDied, match="exit code 3 before reporting a result"):
            self.call(worker, {"exit": 3})
        assert worker.restarts == 1 and worker.pid != first
        assert not pid_exists(first)
        assert self.call(worker, {}) == ("ok", {"pid": str(worker.pid)})

    def test_a_worker_killed_while_idle_is_replaced_before_the_next_job(
        self, worker: JobWorker
    ) -> None:
        first = worker.pid
        os.kill(first, signal.SIGKILL)
        wait_until(lambda: not worker._process.is_alive(), "the kill to land")
        assert self.call(worker, {}) == ("ok", {"pid": str(worker.pid)})
        assert worker.restarts == 1 and worker.pid != first

    def test_cancel_terminates_promptly_and_replaces(self, worker: JobWorker) -> None:
        first = worker.pid
        cancelled = threading.Event()
        threading.Timer(0.2, cancelled.set).start()
        started = now()
        with pytest.raises(JobCancelled):
            self.call(worker, {"sleep": 60}, cancelled=cancelled)
        assert now() - started < 2.0
        assert not pid_exists(first)
        assert worker.restarts == 1
        # The old pipe went with the old process: the next reply is the next job's.
        assert self.call(worker, {}) == ("ok", {"pid": str(worker.pid)})

    def test_stop_leaves_no_process(self) -> None:
        worker = JobWorker(report_pid)
        pid = worker.pid
        self.call(worker, {})
        started = now()
        worker.stop()
        assert now() - started < 2.0
        assert not worker._process.is_alive() and worker._process.exitcode == 0
        assert not pid_exists(pid)

    def test_a_worker_whose_service_is_already_gone_exits_at_its_first_poll(self) -> None:
        # What a replacement sees when the server is killed between the fork
        # and the worker's entry: a parent pid that will never change again,
        # and a service pid that no longer answers.
        gone = multiprocessing.Process(target=int)
        gone.start()
        gone.join(timeout=10)
        assert gone.exitcode == 0
        parent_end, child_end = multiprocessing.Pipe()
        worker = multiprocessing.Process(
            target=_worker_main, args=(child_end, report_pid, gone.pid), daemon=True
        )
        worker.start()
        try:
            worker.join(timeout=2 * IDLE_POLL_S + 1.0)
            assert not worker.is_alive() and worker.exitcode == 0
        finally:
            worker.kill()
            parent_end.close()
            child_end.close()

    def test_signal_disposition_inside_the_worker(self) -> None:
        worker = JobWorker(_signal_dispositions)
        try:
            _, dispositions = self.call(worker, {})
        finally:
            worker.stop()
        assert dispositions == {"SIGTERM": "SIG_DFL", "SIGINT": "SIG_IGN"}


def _signal_dispositions(_request: object, _execution: object) -> Dict[str, str]:
    return {
        name: signal.Handlers(signal.getsignal(getattr(signal, name))).name
        for name in ("SIGTERM", "SIGINT")
    }


# -- the same transitions through JobManager, with real requests ----------------


class TestManagerLifecycle:
    def test_consecutive_jobs_share_a_process_a_cancel_replaces_it(
        self, manager: JobManager
    ) -> None:
        first = worker_pid(manager)
        for seed in (1, 2):
            assert finish(manager.submit(payload(seed), label="tiny")[0]).state == DONE
            assert worker_pid(manager) == first
        assert manager.stats()["worker_restarts"] == 0

        long_job, _ = manager.submit(payload(3, LONG_SPEC), label="long")
        wait_until(lambda: long_job.state == RUNNING, "the long job to start")
        started = now()
        manager.cancel(long_job.id)
        assert finish(long_job).state == CANCELLED
        assert now() - started < 1.0  # 5.1 s when terminate() was swallowed
        assert long_job.digest not in manager.store
        assert manager.stats()["worker_restarts"] == 1
        second = worker_pid(manager)
        assert second != first and not pid_exists(first)

        assert finish(manager.submit(payload(4), label="tiny")[0]).state == DONE
        assert worker_pid(manager) == second

    def test_sigkill_mid_job_fails_that_job_only(self, manager: JobManager) -> None:
        first = worker_pid(manager)
        doomed, _ = manager.submit(payload(1, LONG_SPEC), label="long")
        wait_until(lambda: doomed.state == RUNNING, "the job to start")
        os.kill(first, signal.SIGKILL)
        assert finish(doomed).state == FAILED
        assert "long" in (doomed.detail or "")
        assert "worker process died with exit code -9" in (doomed.detail or "")
        assert finish(manager.submit(payload(2), label="tiny")[0]).state == DONE
        assert worker_pid(manager) != first
        assert manager.stats()["worker_restarts"] == 1

    def test_timeout_fails_the_job_and_replaces_the_worker(self, manager: JobManager) -> None:
        first = worker_pid(manager)
        started = now()
        slow, _ = manager.submit(payload(1, LONG_SPEC), label="long", timeout_s=0.3)
        assert finish(slow).state == FAILED
        assert now() - started < 2.0  # no 5 s join fallback behind the terminate
        assert "exceeded its 0.3s timeout" in (slow.detail or "")
        assert not pid_exists(first)
        assert finish(manager.submit(payload(2), label="tiny")[0]).state == DONE
        assert manager.stats()["worker_restarts"] == 1

    def test_a_raising_job_fails_with_its_traceback_on_a_surviving_worker(
        self, manager: JobManager
    ) -> None:
        first = worker_pid(manager)
        broken, _ = manager.submit({"kind": "unknown-kind"}, label="broken")
        assert finish(broken).state == FAILED
        detail = broken.detail or ""
        assert detail.startswith("task #0 (broken) failed in worker: Traceback")
        assert "ValueError: unknown request kind 'unknown-kind'" in detail
        assert finish(manager.submit(payload(1), label="tiny")[0]).state == DONE
        assert worker_pid(manager) == first
        assert manager.stats()["worker_restarts"] == 0

    def test_a_failing_publish_fails_that_job_and_spares_the_thread(
        self, manager: JobManager, monkeypatch: pytest.MonkeyPatch
    ) -> None:
        """An unguarded ``store.put`` raising killed the worker thread: the job
        stayed ``running`` and, with one worker, every later one ``queued``."""
        first = worker_pid(manager)
        real_put = manager.store.put
        full = [OSError(errno.ENOSPC, "No space left on device")]

        def put_on_a_full_disk_once(*args: Any, **kwargs: Any) -> Any:
            if full:
                raise full.pop()
            return real_put(*args, **kwargs)

        monkeypatch.setattr(manager.store, "put", put_on_a_full_disk_once)
        stranded, _ = manager.submit(payload(1), label="tiny")
        assert finish(stranded).state == FAILED
        detail = stranded.detail or ""
        assert f"publishing the result of job {stranded.id} to the run store failed" in detail
        assert "No space left on device" in detail
        assert stranded.digest not in manager.store
        assert all(thread.is_alive() for thread in manager._threads)
        assert manager.stats()["busy_workers"] == 0

        assert finish(manager.submit(payload(2), label="tiny")[0]).state == DONE
        again, cached = manager.submit(payload(1), label="tiny")  # failed: re-runnable
        assert not cached and finish(again).state == DONE
        assert worker_pid(manager) == first
        assert manager.stats()["worker_restarts"] == 0

    def test_no_state_leaks_from_one_job_into_the_next(self, tmp_path: Path) -> None:
        """A, B (failing), C in one worker, then A again in a worker that ran
        nothing else: every stored body is a fresh Session run's."""
        other_spec = dict(TINY_SPEC, name="other", num_websites=5, objects_per_website=30)
        requests = {
            "A": (TINY_SPEC, 7),
            "C": (other_spec, 8),
        }

        def expected(spec: Dict[str, object], seed: int) -> Dict[str, str]:
            result = Session.from_spec(ScenarioSpec.from_dict(spec), seed=seed).run()
            return run_documents(result, scale=1.0)

        first = JobManager(RunStore(tmp_path / "one"), workers=1)
        second = JobManager(RunStore(tmp_path / "two"), workers=1)
        try:
            a, _ = first.submit(payload(7), label="A")
            b, _ = first.submit({"kind": "unknown-kind"}, label="B")
            c, _ = first.submit(payload(8, other_spec), label="C")
            again, _ = second.submit(payload(7), label="A")
            assert [finish(job).state for job in (a, b, c, again)] == [
                DONE, FAILED, DONE, DONE
            ]
            assert first.stats()["worker_restarts"] == 0
            for manager, job, name in ((first, a, "A"), (first, c, "C"), (second, again, "A")):
                documents = expected(*requests[name])
                for filename in (DIGEST_FILENAME, RESULT_FILENAME):
                    assert (
                        manager.store.read_document(job.digest, filename)
                        == documents[filename]
                    ), f"{name}: {filename} differs from a fresh Session run"
        finally:
            first.shutdown(drain=False)
            second.shutdown(drain=False)

    def test_shutdown_leaves_no_child(self, tmp_path: Path) -> None:
        before = multiprocessing.active_children()
        manager = JobManager(RunStore(tmp_path / "store"), workers=2)
        pids = [worker.pid for worker in manager._pool]
        assert len(pids) == 2 and all(pid_exists(pid) for pid in pids)
        assert len(multiprocessing.active_children()) == len(before) + 2
        assert finish(manager.submit(payload(1), label="tiny")[0]).state == DONE
        started = now()
        assert manager.shutdown() is True
        assert now() - started < 2.0
        assert multiprocessing.active_children() == before
        assert not any(pid_exists(pid) for pid in pids)

    def test_shutdown_without_drain_cancels_the_running_job(self, tmp_path: Path) -> None:
        before = multiprocessing.active_children()
        manager = JobManager(RunStore(tmp_path / "store"), workers=1)
        job, _ = manager.submit(payload(1, LONG_SPEC), label="long")
        wait_until(lambda: job.state == RUNNING, "the job to start")
        started = now()
        manager.shutdown(drain=False)
        assert now() - started < 2.0
        assert job.state == CANCELLED
        assert multiprocessing.active_children() == before

    def test_an_injected_executor_starts_no_process(self, tmp_path: Path) -> None:
        before = multiprocessing.active_children()
        manager = JobManager(
            RunStore(tmp_path / "store"), workers=2,
            executor=lambda _payload, _execution: {"digest.json": "{}\n"},
        )
        try:
            assert manager._pool == []
            assert multiprocessing.active_children() == before
            assert finish(manager.submit(payload(1), label="tiny")[0]).state == DONE
            assert multiprocessing.active_children() == before
            assert manager.stats()["worker_restarts"] == 0
        finally:
            manager.shutdown(drain=False)

    @pytest.mark.skipif(
        sys.version_info < (3, 12),
        reason="fork() in a multi-threaded process warns from CPython 3.12 on",
    )
    def test_the_boot_fork_is_single_threaded(self, tmp_path: Path) -> None:
        script = (
            "from pathlib import Path\n"
            "from repro.service import JobManager, RunStore\n"
            f"manager = JobManager(RunStore(Path({str(tmp_path / 'store')!r})), workers=2)\n"
            "manager.shutdown()\n"
        )
        outcome = subprocess.run(
            [sys.executable, "-W", "error::DeprecationWarning", "-c", script],
            env=dict(os.environ, PYTHONPATH=SRC),
            capture_output=True, text=True, timeout=60,
        )
        assert outcome.returncode == 0, outcome.stderr
        assert outcome.stderr == ""


# -- the queued-jobs counter ----------------------------------------------------


class TestQueuedCounter:
    def test_counter_equals_a_scan_under_random_interleavings(self, tmp_path: Path) -> None:
        gates: Dict[int, threading.Event] = {}

        def gate(seed: object) -> threading.Event:
            return gates.setdefault(int(seed), threading.Event())  # atomic under the GIL

        def gated(request: Dict[str, Any], _execution: Dict[str, Any]) -> Dict[str, str]:
            gate(request["seed"]).wait(timeout=30)
            return {"digest.json": "{}\n"}

        manager = JobManager(
            RunStore(tmp_path / "store"), workers=2, max_queue=5, executor=gated
        )
        rng = random.Random(20)
        submitted: List[Job] = []

        def check() -> None:
            with manager._lock:
                scan = sum(1 for job in manager._jobs.values() if job.state == QUEUED)
                assert manager._queued == scan == manager.queue_depth()
            assert manager.stats()["queue_depth"] == scan

        try:
            for step in range(300):
                action = rng.random()
                if action < 0.5 or not submitted:
                    try:
                        # a small seed range, so live, done and cancelled
                        # digests all get resubmitted
                        job, _ = manager.submit(payload(rng.randrange(40)), label="tiny")
                        submitted.append(job)
                    except QueueFullError:
                        pass
                elif action < 0.75:
                    manager.cancel(rng.choice(submitted).id)
                else:
                    gate(rng.choice(submitted).payload["seed"]).set()
                check()
                if step % 25 == 0:
                    time.sleep(0.01)  # let the worker threads take jobs
                    check()
            for seed in range(40):
                gate(seed).set()
            assert manager.drain(timeout_s=30)
            check()
            assert manager.queue_depth() == 0
        finally:
            for seed in range(40):
                gate(seed).set()
            manager.shutdown(drain=False)


# -- the real CLI: signal handlers, drain, orphaned workers ----------------------


def child_pids(pid: int) -> List[int]:
    """Direct children of ``pid``, from ``/proc`` (the CLI server's workers)."""
    children = []
    for entry in Path("/proc").iterdir():
        fields = proc_stat(int(entry.name)) if entry.name.isdigit() else None
        if fields is not None and int(fields[1]) == pid:
            children.append(int(entry.name))
    return sorted(children)


def pids_mentioning(text: str) -> List[int]:
    """Live processes whose command line contains ``text``."""
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit() or not pid_exists(int(entry.name)):
            continue
        try:
            command = (entry / "cmdline").read_bytes().decode("utf-8", "replace")
        except OSError:
            continue
        if text in command:
            found.append(int(entry.name))
    return found


class CliServer:
    """``python -m repro.cli serve`` in a subprocess (it installs the drain handlers)."""

    def __init__(self, store: Path) -> None:
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0", "--workers", "1",
             "--store", str(store)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=dict(os.environ, PYTHONPATH=SRC),
        )
        assert self.process.stdout is not None
        banner = self.process.stdout.readline()
        match = re.search(r"http://[\d.]+:\d+", banner)
        assert match, f"no listen banner: {banner!r}"
        self.base = match.group(0)

    def request(self, method: str, path: str, body: Optional[dict] = None) -> Tuple[int, dict]:
        data = None if body is None else json.dumps(body).encode("utf-8")
        request = urllib.request.Request(
            self.base + path, data=data, method=method,
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=30) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read())

    def state(self, run_id: str) -> str:
        return str(self.request("GET", f"/runs/{run_id}")[1]["state"])

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait(timeout=30)
        assert self.process.stdout is not None
        self.process.stdout.close()


@pytest.mark.skipif(not HAVE_PROC, reason="finds the server's workers through /proc")
class TestRealCli:
    @pytest.fixture
    def server(self, tmp_path: Path) -> Iterator[CliServer]:
        """Every test ends with ``kill -9`` of whatever is left of the server,
        and none of its workers may outlive that by more than two idle polls —
        not even a replacement forked a moment before (one that reads its
        parent pid only after the parent died has nothing to see change)."""
        store = tmp_path / "store"
        server = CliServer(store)
        yield server
        server.kill()
        # Workers share the server's command line, and the store path in it
        # is this test's alone: that finds them after they were re-parented.
        wait_until(
            lambda: not pids_mentioning(str(store)),
            f"the workers of the server on {store} to follow it",
            2 * IDLE_POLL_S + 1.0,
        )

    def test_delete_on_a_running_job_is_prompt_under_the_drain_handlers(
        self, server: CliServer
    ) -> None:
        """The regression the in-process fixtures cannot see: a job process
        that inherits the CLI's SIGTERM handler swallows ``terminate()``."""
        (first_worker,) = child_pids(server.process.pid)
        status, submitted = server.request(
            "POST", "/runs", {"scenario": "paper-default-full-scale"}
        )
        assert status == 202
        run_id = submitted["id"]
        wait_until(lambda: server.state(run_id) == RUNNING, "the job to start")
        started = now()
        status, _ = server.request("DELETE", f"/runs/{run_id}")
        assert status == 200
        wait_until(lambda: server.state(run_id) == CANCELLED, "the cancel to land", 20.0)
        assert now() - started < 1.0  # 5.1 s at the parent commit
        _, stats = server.request("GET", "/stats")
        assert stats["worker_restarts"] == 1
        (second_worker,) = child_pids(server.process.pid)
        assert second_worker != first_worker and not pid_exists(first_worker)

        # The replacement serves the next job, and the server still drains.
        _, submitted = server.request("POST", "/runs", {"spec": TINY_SPEC, "seed": 7})
        wait_until(lambda: server.state(submitted["id"]) in TERMINAL, "the second job")
        assert server.state(submitted["id"]) == DONE
        status, body = server.request("GET", f"/runs/{submitted['id']}/result")
        assert status == 200
        direct = Session.from_spec(ScenarioSpec.from_dict(TINY_SPEC), seed=7).run()
        assert body == json.loads(run_documents(direct, scale=1.0)[DIGEST_FILENAME])
        server.process.send_signal(signal.SIGTERM)
        assert server.process.wait(timeout=10) == 0
        assert not pid_exists(second_worker)

    def test_sigterm_after_a_completed_job_exits_zero_and_leaves_no_worker(
        self, server: CliServer
    ) -> None:
        (worker,) = child_pids(server.process.pid)
        _, submitted = server.request("POST", "/runs", {"spec": TINY_SPEC, "seed": 7})
        wait_until(lambda: server.state(submitted["id"]) == DONE, "the job")
        assert child_pids(server.process.pid) == [worker]  # warm, not re-forked
        started = now()
        server.process.send_signal(signal.SIGTERM)
        assert server.process.wait(timeout=10) == 0
        assert now() - started < 2.0
        assert not pid_exists(worker)

    def test_sigint_is_ignored_by_a_busy_worker(self, server: CliServer) -> None:
        """A terminal Ctrl-C reaches the whole process group; the job must
        live to be drained, so only the server may act on it."""
        (worker,) = child_pids(server.process.pid)
        _, submitted = server.request("POST", "/runs", {"spec": LONG_SPEC, "seed": 1})
        wait_until(lambda: server.state(submitted["id"]) == RUNNING, "the job to start")
        os.kill(worker, signal.SIGINT)
        time.sleep(0.3)
        assert pid_exists(worker) and server.state(submitted["id"]) == RUNNING
        server.request("DELETE", f"/runs/{submitted['id']}")
        wait_until(lambda: server.state(submitted["id"]) == CANCELLED, "the cancel")

    def test_a_store_that_cannot_be_written_costs_the_job_not_the_service(
        self, server: CliServer, tmp_path: Path
    ) -> None:
        """At the parent commit the worker thread died in ``store.put``: this
        job stayed ``running`` and the next one ``queued``, for good."""
        (worker,) = child_pids(server.process.pid)
        # The staging area becomes a file: unlike a read-only mode, that stops
        # a server running as root too.
        staging = tmp_path / "store" / "tmp"
        shutil.rmtree(staging)
        staging.write_text("not a directory\n")
        _, submitted = server.request("POST", "/runs", {"spec": TINY_SPEC, "seed": 7})
        wait_until(lambda: server.state(submitted["id"]) in TERMINAL, "the first job")
        _, status = server.request("GET", f"/runs/{submitted['id']}")
        assert status["state"] == FAILED
        assert "to the run store failed: Traceback" in status["detail"]
        assert "NotADirectoryError" in status["detail"]
        assert server.request("GET", "/healthz")[0] == 200

        staging.unlink()
        staging.mkdir()
        for seed in (8, 7):  # a new request, then the one that failed
            code, submitted = server.request("POST", "/runs", {"spec": TINY_SPEC, "seed": seed})
            assert code == 202
            wait_until(lambda: server.state(submitted["id"]) in TERMINAL, f"job {seed}")
            assert server.state(submitted["id"]) == DONE
        assert child_pids(server.process.pid) == [worker]
        assert list(staging.iterdir()) == []
        assert server.request("GET", "/stats")[1]["worker_restarts"] == 0

    def test_kill_dash_nine_of_the_server_leaves_no_orphan(self, server: CliServer) -> None:
        (worker,) = child_pids(server.process.pid)
        server.process.kill()
        server.process.wait(timeout=10)
        # An idle worker looks for its parent once per poll; two polls bound it.
        wait_until(lambda: not pid_exists(worker), "the orphan to exit", 2 * IDLE_POLL_S + 1.0)

    def test_kill_dash_nine_right_after_a_replacement_leaves_no_orphan(
        self, server: CliServer
    ) -> None:
        # The fixture's teardown is the assertion: the replacement worker is
        # milliseconds old when the server dies.
        _, submitted = server.request("POST", "/runs", {"spec": LONG_SPEC, "seed": 2})
        wait_until(lambda: server.state(submitted["id"]) == RUNNING, "the job to start")
        server.request("DELETE", f"/runs/{submitted['id']}")
        wait_until(lambda: server.state(submitted["id"]) == CANCELLED, "the cancel")
