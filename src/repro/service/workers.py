"""Warm job workers of the ``repro serve`` service.

A :class:`JobWorker` is one long-lived child process that executes requests
one at a time over its own pipe::

    parent  --(payload, execution)-->  child: execute(payload, execution)
    parent  <--("ok", documents) | ("error", text)--  child

Its life is a four-state token game — *idle → busy → idle*, or *→ dead →
replaced* — and :meth:`JobWorker.run` is the only place a token moves: a job
that returns or raises leaves the worker idle (and warm: imports done, memo
tables and allocator arenas populated); a cancel, a timeout or a death
(``kill -9``, ``os._exit``, the OOM killer) ends the process, fails *that*
job and puts a fresh process in its place before the next one.  Every
replacement gets a new pipe, so a late answer can never reach another job.

Signals: the child resets SIGTERM to the default action (so ``terminate()``
is prompt even under ``repro serve``, whose drain handler it would otherwise
inherit) and ignores SIGINT (a terminal Ctrl-C reaches the whole foreground
process group; the server drains, and in-flight jobs must live to be drained).

Shutdown never relies on pipe EOF — workers forked later inherit the earlier
pipes' ends — but on an explicit stop message, a bounded join and then
``terminate()``.  A worker whose parent vanished notices on its idle poll
(``os.getppid()`` changed, or the service's pid no longer answers) and exits
on its own.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import traceback
from multiprocessing.connection import Connection, wait
from typing import Any, Callable, Dict, Optional, Tuple

from repro.core.system import InfeasibleScenarioError

__all__ = [
    "JobWorker",
    "JobCancelled",
    "JobTimedOut",
    "WorkerDied",
    "failure_text",
]

#: how often an idle worker checks that its parent is still there, seconds
IDLE_POLL_S = 1.0
#: how often a busy worker's parent looks at the cancel flag and the deadline
_BUSY_POLL_S = 0.1
#: how long a worker gets to act on the stop message before it is terminated
_STOP_JOIN_S = 1.0
#: bound on every other join; past it the process is killed
_JOIN_S = 5.0

Execute = Callable[[Dict[str, object], Dict[str, object]], Dict[str, str]]


class JobCancelled(Exception):
    """The running job was cancelled; its worker was terminated and replaced."""


class JobTimedOut(Exception):
    """The running job hit its deadline; its worker was terminated and replaced."""


class WorkerDied(Exception):
    """The worker died under the job (the text carries its exit code)."""


def failure_text(error: BaseException) -> str:
    """What a failed job reports: one line for a typed, expected failure of
    the request itself, the traceback for anything else."""
    if isinstance(error, InfeasibleScenarioError):
        return str(error)
    return traceback.format_exc()


def _orphaned(entry_ppid: int, service_pid: int) -> bool:
    """Whether the service this worker belongs to is gone.

    Two probes, because each has a blind spot.  The parent pid changing is
    the rule (it is read at entry, not passed in: under forkserver the parent
    is the fork server, which dies with the service) — but a service killed
    *before* the worker read it leaves nothing to change.  The service's pid
    not answering covers that — but a dead service nobody reaped, a zombie,
    still answers, and its children have been re-parented all the same.
    """
    if os.getppid() != entry_ppid:
        return True
    try:
        os.kill(service_pid, 0)
    except OSError:  # no such process, or the pid is already someone else's
        return True
    return False


def _worker_main(conn: Connection, execute: Execute, service_pid: int) -> None:
    """Child-process entry: serve requests until told to stop or orphaned."""
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    entry_ppid = os.getppid()
    while True:
        while not conn.poll(IDLE_POLL_S):
            if _orphaned(entry_ppid, service_pid):
                return
        message = conn.recv()
        if message is None:
            return
        payload, execution = message
        try:
            reply = ("ok", execute(payload, execution))
        except Exception as error:  # the job's failure, reported as the job's
            reply = ("error", failure_text(error))
        if _orphaned(entry_ppid, service_pid):
            return  # nobody is listening, and a send into a full pipe blocks
        conn.send(reply)


class JobWorker:
    """One warm worker process; driven by one thread at a time."""

    def __init__(self, execute: Execute) -> None:
        self._execute = execute
        #: processes started in place of a terminated or dead one
        self.restarts = 0
        self._start()

    def _start(self) -> None:
        self._conn, child_conn = multiprocessing.Pipe(duplex=True)
        self._process = multiprocessing.Process(
            target=_worker_main,
            args=(child_conn, self._execute, os.getpid()),
            name="repro-serve-job-worker",
            daemon=True,
        )
        self._process.start()
        child_conn.close()

    @property
    def pid(self) -> Optional[int]:
        return self._process.pid

    def run(
        self,
        payload: Dict[str, object],
        execution: Dict[str, object],
        cancelled: threading.Event,
        deadline: Optional[float],
        clock: Callable[[], float],
    ) -> Tuple[str, Any]:
        """Execute one request in the worker; returns the worker's reply,
        ``("ok", documents)`` or ``("error", failure text)``.

        Raises :class:`JobCancelled`, :class:`JobTimedOut` or
        :class:`WorkerDied` — each after the worker has been replaced.
        """
        if not self._process.is_alive():
            self._replace()  # died while idle: not this job's failure
        try:
            return self._exchange((payload, execution), cancelled, deadline, clock)
        except (JobCancelled, JobTimedOut, WorkerDied):
            self._replace()
            raise

    def _exchange(
        self,
        request: Tuple[Dict[str, object], Dict[str, object]],
        cancelled: threading.Event,
        deadline: Optional[float],
        clock: Callable[[], float],
    ) -> Tuple[str, Any]:
        conn, process = self._conn, self._process
        try:
            conn.send(request)
            while True:
                if cancelled.is_set():
                    raise JobCancelled()
                if deadline is not None and clock() >= deadline:
                    raise JobTimedOut()
                ready = wait([conn, process.sentinel], timeout=_BUSY_POLL_S)
                if conn in ready:
                    return conn.recv()  # EOFError: it died and the pipe closed
                if ready:
                    break  # the sentinel alone: dead, and nothing was sent
        except (EOFError, OSError):
            pass
        process.join(timeout=_JOIN_S)
        raise WorkerDied(
            f"worker process died with exit code {process.exitcode} "
            "before reporting a result"
        )

    def _replace(self) -> None:
        self._discard()
        self._start()
        self.restarts += 1

    def _discard(self) -> None:
        self._conn.close()
        process = self._process
        if process.is_alive():
            process.terminate()
            process.join(timeout=_JOIN_S)
            if process.is_alive():  # pragma: no cover - defensive
                process.kill()
                process.join(timeout=_JOIN_S)

    def stop(self) -> None:
        """Ask the (idle) worker to exit; terminate it if it does not."""
        try:
            self._conn.send(None)
        except OSError:
            pass  # already dead: the join below reaps it
        self._process.join(timeout=_STOP_JOIN_S)
        self._discard()
