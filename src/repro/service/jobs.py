"""Job-execution layer of the ``repro serve`` service.

A :class:`JobManager` owns a bounded FIFO queue of jobs and a pool of worker
threads.  Each thread drives its own **warm worker process**
(:class:`repro.service.workers.JobWorker`, started at construction before any
thread exists) and hands it one job at a time over a pipe, so a crashing or
runaway run can never take the server down: a worker traceback comes back as
text and becomes a ``failed`` status carrying the familiar
:class:`~repro.scenarios.parallel.TaskError` detail; a per-job timeout,
``DELETE`` on a running job or a dying worker costs only that job, and the
worker is replaced before the next one.  Worker sizing defaults to the same
CPU-affinity heuristic as the batch runners
(:func:`repro.scenarios.parallel.default_jobs`).

Jobs are deduplicated by the canonical request digest
(:func:`repro.service.store.request_digest`): submitting an identical
``(spec, seed, scale, shards)`` request while a matching job is
queued, running or done returns the same job; a digest already present in
the :class:`~repro.service.store.RunStore` completes instantly from cache.
Everything executes through :class:`repro.session.Session` — the service
adds no execution semantics, so results are byte-identical to CLI runs by
construction.

Wall-clock timestamps (submission/start/finish times reported by the API)
flow through an injectable ``clock`` callable — the sanctioned clock hook —
whose default is the single wall-clock read of the package.
"""

from __future__ import annotations

import json
import queue
import threading
import time
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Tuple

from repro.scenarios.artifacts import run_documents
from repro.scenarios.parallel import TaskError, default_jobs
from repro.scenarios.spec import ScenarioSpec
from repro.service.store import RunStore, request_digest
from repro.service.workers import (
    JobCancelled,
    JobTimedOut,
    JobWorker,
    WorkerDied,
    failure_text,
)

__all__ = [
    "QUEUED",
    "RUNNING",
    "DONE",
    "FAILED",
    "CANCELLED",
    "JOB_STATES",
    "Job",
    "JobManager",
    "QueueFullError",
    "ServiceClosedError",
    "canonical_scenario_payload",
    "canonical_sweep_payload",
    "execute_request",
]

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"
#: every state a job can report, in lifecycle order
JOB_STATES = (QUEUED, RUNNING, DONE, FAILED, CANCELLED)
_TERMINAL_STATES = frozenset({DONE, FAILED, CANCELLED})

#: characters of the request digest used as the public run id
RUN_ID_LENGTH = 16


def wall_clock() -> float:
    """The package's sanctioned wall-clock hook (job timestamps only).

    Simulation results never depend on it — it feeds the ``submitted_at`` /
    ``started_at`` / ``finished_at`` fields the HTTP API reports.  Tests and
    deterministic harnesses inject their own counter via
    ``JobManager(clock=...)``.
    """
    return time.time()  # repro: allow(DET002)


class QueueFullError(RuntimeError):
    """The bounded job queue is full; retry after ``retry_after_s``."""

    def __init__(self, retry_after_s: int) -> None:
        super().__init__(f"job queue full; retry after ~{retry_after_s}s")
        self.retry_after_s = retry_after_s


class ServiceClosedError(RuntimeError):
    """The manager is draining and no longer accepts submissions."""


# -- canonical request payloads ----------------------------------------------


def canonical_scenario_payload(
    spec: ScenarioSpec,
    seed: Optional[int] = None,
    scale: float = 1.0,
    shards: Optional[int] = None,
) -> Dict[str, object]:
    """The canonical, digest-stable payload of one scenario run request.

    The scale factor is applied to the spec here, and every knob that can
    change result *bytes or identity* (spec, seed, scale, shards) is
    part of the payload — execution hints that cannot (worker counts) are
    not.  Two requests dedupe to one run exactly when these payloads match.

    ``payload["spec"]`` is **shared and read-only**: every payload built from
    the same spec object at the same scale carries the one document
    :func:`_spec_document` remembers; seed, scale and shards are per call.
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    spec, document = _spec_document(_SpecIdentity(spec), scale)
    resolved_shards = spec.shards if shards is None else shards
    if resolved_shards < 1:
        raise ValueError("shards must be >= 1")
    return {
        "kind": "scenario",
        "spec": document,
        "seed": spec.seed if seed is None else int(seed),
        "scale": scale,
        "shards": resolved_shards,
    }


#: how many (spec, scale) documents :func:`_spec_document` remembers
SPEC_DOCUMENT_MEMO_SIZE = 64


class _SpecIdentity:
    """A spec as a memo key: *this object*, kept alive by the key itself.

    Identity, not value or name: equal specs can serialise differently (an
    inline ``"duration_s": 900`` equals ``900.0`` and prints otherwise), and
    re-registering a scenario name installs a different object.
    """

    __slots__ = ("spec",)

    def __init__(self, spec: ScenarioSpec) -> None:
        self.spec = spec

    def __hash__(self) -> int:
        return id(self.spec)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _SpecIdentity) and other.spec is self.spec


@lru_cache(maxsize=SPEC_DOCUMENT_MEMO_SIZE, typed=True)
def _spec_document(
    key: _SpecIdentity, scale: float
) -> Tuple[ScenarioSpec, Dict[str, object]]:
    """``spec.scaled(scale)`` and its ``to_dict()``, built once per (spec object, scale).

    A repeated submission looks these up instead of re-scaling, re-validating
    and re-serialising the spec.  ``typed``: ``scaled(2)`` and ``scaled(2.0)``
    can print a duration differently.  Failures are not remembered.
    """
    spec = key.spec.scaled(scale) if scale != 1.0 else key.spec
    return spec, spec.to_dict()


def canonical_sweep_payload(
    sweep: str, seed: Optional[int] = None, scale: float = 1.0
) -> Dict[str, object]:
    """The canonical payload of one sweep-grid request (see above)."""
    if scale <= 0:
        raise ValueError("scale must be positive")
    from repro.sweeps.library import get_sweep

    get_sweep(sweep)  # unknown names fail at submission time
    return {
        "kind": "sweep",
        "sweep": sweep,
        "seed": None if seed is None else int(seed),
        "scale": scale,
    }


# -- request execution (module-level so a worker process can run it) ----------


def execute_request(
    payload: Dict[str, object], execution: Optional[Dict[str, object]] = None
) -> Dict[str, str]:
    """Execute one canonical request; returns the bundle documents.

    Runs entirely through :class:`repro.session.Session` /
    :func:`repro.sweeps.engine.run_sweep` — the same code paths as the CLI —
    and serialises through the shared bundle writer, so the returned
    documents are byte-identical to a CLI run/export of the same request.
    ``execution`` carries non-canonical hints (sweep cell workers).
    """
    from repro.session import Session

    execution = execution or {}
    kind = payload["kind"]
    if kind == "scenario":
        spec = ScenarioSpec.from_dict(payload["spec"])  # type: ignore[arg-type]
        session = Session.from_spec(
            spec,
            seed=int(payload["seed"]),  # type: ignore[arg-type]
            shards=int(payload["shards"]),  # type: ignore[arg-type]
        )
        result = session.run()
        return run_documents(result, scale=float(payload["scale"]))  # type: ignore[arg-type]
    if kind == "sweep":
        from repro.sweeps.artifacts import sweep_documents
        from repro.sweeps.engine import run_sweep

        scale = float(payload["scale"])  # type: ignore[arg-type]
        seed = payload["seed"]
        return sweep_documents(
            run_sweep(
                str(payload["sweep"]),
                jobs=int(execution.get("jobs", 1)),  # type: ignore[arg-type]
                seed=None if seed is None else int(seed),  # type: ignore[arg-type]
                scale=None if scale == 1.0 else scale,
            )
        )
    raise ValueError(f"unknown request kind {kind!r}")


# -- the job table ------------------------------------------------------------


@dataclass
class Job:
    """One submitted request and its lifecycle state."""

    id: str
    digest: str
    kind: str
    label: str
    payload: Dict[str, object]
    execution: Dict[str, object] = field(default_factory=dict)
    state: str = QUEUED
    #: True when this submission was answered without a new execution
    #: (deduplicated against a live job or served from the run store)
    cached: bool = False
    #: failure detail (the TaskError text, including the worker traceback)
    detail: Optional[str] = None
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    timeout_s: Optional[float] = None
    cancel_event: threading.Event = field(default_factory=threading.Event)

    def to_dict(self, clock_now: Optional[float] = None) -> Dict[str, object]:
        """The status document ``GET /runs/{id}`` returns."""
        document: Dict[str, object] = {
            "id": self.id,
            "kind": self.kind,
            "label": self.label,
            "digest": self.digest,
            "state": self.state,
            "cached": self.cached,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
        }
        if self.detail is not None:
            document["detail"] = self.detail
        if self.state == RUNNING and clock_now is not None and self.started_at:
            document["elapsed_s"] = max(0.0, clock_now - self.started_at)
        if self.state == DONE and self.started_at and self.finished_at:
            document["duration_s"] = self.finished_at - self.started_at
        return document


class JobManager:
    """Bounded queue + worker pool + run-store integration (thread-safe)."""

    def __init__(
        self,
        store: RunStore,
        workers: Optional[int] = None,
        max_queue: int = 16,
        timeout_s: Optional[float] = None,
        clock: Callable[[], float] = wall_clock,
        executor: Optional[Callable[..., Dict[str, str]]] = None,
    ) -> None:
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        self.store = store
        self.workers = workers if workers is not None else min(4, default_jobs())
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        self.max_queue = max_queue
        self.timeout_s = timeout_s
        self._clock = clock
        #: in-thread executor override (tests); None = process isolation
        self._executor = executor
        self._lock = threading.RLock()
        self._jobs: Dict[str, Job] = {}
        self._by_digest: Dict[str, str] = {}
        self._queue: "queue.Queue[str]" = queue.Queue()
        #: jobs in state QUEUED (kept, not scanned: the job table only grows)
        self._queued = 0
        self._stop = threading.Event()
        self._accepting = True
        self._busy = 0
        self._durations: List[float] = []
        self.dedup_hits = 0
        self.store_hits = 0
        self.misses = 0
        # Every worker process starts here, before the first thread does: the
        # forks that happen on every boot happen in a single-threaded process.
        # (Empty with an injected executor: its threads run the jobs themselves.)
        self._pool: List[JobWorker] = (
            [JobWorker(execute_request) for _ in range(self.workers)]
            if executor is None
            else []
        )
        self._threads = [
            threading.Thread(
                target=self._worker_loop,
                args=(self._pool[index] if self._pool else None,),
                name=f"repro-serve-worker-{index}",
                daemon=True,
            )
            for index in range(self.workers)
        ]
        for thread in self._threads:
            thread.start()

    # -- submission ----------------------------------------------------------

    def submit(
        self,
        payload: Dict[str, object],
        label: str,
        execution: Optional[Dict[str, object]] = None,
        timeout_s: Optional[float] = None,
    ) -> Tuple[Job, bool]:
        """Submit one canonical request; dedupes, caches, or enqueues.

        Returns ``(job, cached)`` — ``cached`` is True when this submission
        triggered **no new execution** (it joined a live identical job, or
        the digest was already in the run store).  Raises
        :class:`QueueFullError` on backpressure and
        :class:`ServiceClosedError` while draining.
        """
        digest = request_digest(payload)
        kind = str(payload["kind"])
        with self._lock:
            if not self._accepting:
                raise ServiceClosedError("service is draining; not accepting jobs")
            existing_id = self._by_digest.get(digest)
            if existing_id is not None:
                existing = self._jobs[existing_id]
                if existing.state not in (FAILED, CANCELLED):
                    # Live dedup: identical submission joins the same run.
                    self.dedup_hits += 1
                    return existing, True
                # A failed/cancelled digest is re-runnable: requeue below.
            if self.store.touch(digest):  # present, and now recently used
                self.store_hits += 1
                job = self._register(
                    digest, kind, label, payload, execution, timeout_s
                )
                job.state = DONE
                job.cached = True
                job.finished_at = job.submitted_at
                return job, True
            if self._queued >= self.max_queue:
                raise QueueFullError(self._retry_after_locked(self._queued))
            self.misses += 1
            job = self._register(digest, kind, label, payload, execution, timeout_s)
            self._queued += 1
            self._queue.put(job.id)
            return job, False

    def _register(
        self,
        digest: str,
        kind: str,
        label: str,
        payload: Dict[str, object],
        execution: Optional[Dict[str, object]],
        timeout_s: Optional[float],
    ) -> Job:
        job = Job(
            id=digest[:RUN_ID_LENGTH],
            digest=digest,
            kind=kind,
            label=label,
            payload=payload,
            execution=dict(execution or {}),
            submitted_at=self._clock(),
            timeout_s=self.timeout_s if timeout_s is None else timeout_s,
        )
        previous = self._jobs.get(job.id)
        if previous is not None and previous.digest != digest:
            # A 64-bit id prefix collision between distinct digests: keep the
            # full digest as the id instead of serving someone else's run.
            job.id = digest
        self._jobs[job.id] = job
        self._by_digest[digest] = job.id
        return job

    def _retry_after_locked(self, queued: int) -> int:
        if self._durations:
            average = sum(self._durations) / len(self._durations)
        else:
            average = 1.0
        waves = (queued + self.workers) / max(1, self.workers)
        return max(1, int(average * waves + 0.5))

    # -- queries -------------------------------------------------------------

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> List[Job]:
        with self._lock:
            return list(self._jobs.values())

    def queue_depth(self) -> int:
        with self._lock:
            return self._queued

    def stats(self) -> Dict[str, object]:
        """The counters behind ``GET /stats``."""
        with self._lock:
            states = {state: 0 for state in JOB_STATES}
            for job in self._jobs.values():
                states[job.state] += 1
            submissions = self.dedup_hits + self.store_hits + self.misses
            hits = self.dedup_hits + self.store_hits
            return {
                "workers": self.workers,
                "busy_workers": self._busy,
                "worker_utilisation": self._busy / self.workers,
                "worker_restarts": sum(worker.restarts for worker in self._pool),
                "queue_depth": states[QUEUED],
                "max_queue": self.max_queue,
                "accepting": self._accepting,
                "jobs": states,
                "cache": {
                    "dedup_hits": self.dedup_hits,
                    "store_hits": self.store_hits,
                    "misses": self.misses,
                    "hit_ratio": (hits / submissions) if submissions else 0.0,
                },
            }

    # -- cancellation --------------------------------------------------------

    def cancel(self, job_id: str) -> Optional[Job]:
        """Request cancellation; returns the job, or None when unknown.

        Queued jobs cancel immediately; running jobs have their worker
        process terminated and replaced (in-thread executors finish their
        current step and are then marked cancelled).  Terminal jobs are left
        untouched.
        """
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                return None
            if job.state == QUEUED:
                self._finish_locked(job, CANCELLED, detail="cancelled while queued")
                return job
            if job.state == RUNNING:
                job.cancel_event.set()
                return job
            return job

    # -- worker loop ---------------------------------------------------------

    def _worker_loop(self, worker: Optional[JobWorker]) -> None:
        try:
            while not self._stop.is_set():
                try:
                    job_id = self._queue.get(timeout=0.1)
                except queue.Empty:
                    continue
                with self._lock:
                    job = self._jobs.get(job_id)
                    if job is None or job.state != QUEUED:
                        continue  # cancelled (or superseded) while queued
                    job.state = RUNNING
                    self._queued -= 1
                    job.started_at = self._clock()
                    self._busy += 1
                try:
                    self._execute(job, worker)
                finally:
                    with self._lock:
                        self._busy -= 1
        finally:
            if worker is not None:
                worker.stop()

    def _execute(self, job: Job, worker: Optional[JobWorker]) -> None:
        try:
            if worker is None:
                documents = self._run_inline(job)
            else:
                documents = self._run_in_worker(job, worker)
        except TaskError as error:
            self._finish(job, FAILED, detail=str(error))
            return
        except JobCancelled:
            self._finish(job, CANCELLED, detail="cancelled while running")
            return
        except JobTimedOut:
            self._finish(
                job,
                FAILED,
                detail=f"job {job.id} exceeded its {job.timeout_s:g}s timeout "
                       "and was terminated",
            )
            return
        if job.cancel_event.is_set():
            self._finish(job, CANCELLED, detail="cancelled while running")
            return
        try:
            self.store.put(
                job.digest,
                documents,
                kind=job.kind,
                meta={"label": job.label, "id": job.id},
            )
        except Exception as error:
            # A store that cannot take the bundle (disk full, directory gone)
            # costs this job, not the thread that serves the next one.
            self._finish(
                job,
                FAILED,
                detail=f"publishing the result of job {job.id} to the run store "
                       f"failed: {failure_text(error)}",
            )
            return
        self._finish(job, DONE)

    def _run_inline(self, job: Job) -> Dict[str, str]:
        assert self._executor is not None
        try:
            return self._executor(job.payload, job.execution)
        except Exception as error:
            raise TaskError(0, job.label, failure_text(error)) from None

    def _run_in_worker(self, job: Job, worker: JobWorker) -> Dict[str, str]:
        deadline = None if job.timeout_s is None else self._clock() + job.timeout_s
        try:
            status, detail = worker.run(
                job.payload, job.execution, job.cancel_event, deadline, self._clock
            )
        except WorkerDied as error:
            raise TaskError(0, job.label, str(error)) from None
        if status != "ok":
            raise TaskError(0, job.label, str(detail))
        return dict(detail)

    def _finish(self, job: Job, state: str, detail: Optional[str] = None) -> None:
        with self._lock:
            self._finish_locked(job, state, detail=detail)

    def _finish_locked(self, job: Job, state: str, detail: Optional[str]) -> None:
        if job.state in _TERMINAL_STATES:
            return  # first terminal transition wins
        if job.state == QUEUED:
            self._queued -= 1
        job.state = state
        job.detail = detail
        job.finished_at = self._clock()
        if state == DONE and job.started_at is not None:
            self._durations.append(job.finished_at - job.started_at)
            del self._durations[:-32]  # a short moving window is plenty

    # -- lifecycle -----------------------------------------------------------

    def drain(self, timeout_s: float = 60.0) -> bool:
        """Stop accepting, wait for queued+running jobs to finish.

        Returns True when everything reached a terminal state in time.
        Queued jobs are *finished*, not dropped — the bounded queue keeps
        the remaining work finite.
        """
        with self._lock:
            self._accepting = False
        deadline = self._clock() + timeout_s
        while self._clock() < deadline:
            with self._lock:
                pending = [
                    job
                    for job in self._jobs.values()
                    if job.state not in _TERMINAL_STATES
                ]
            if not pending:
                return True
            threading.Event().wait(0.05)
        return False

    def shutdown(self, drain: bool = True, timeout_s: float = 60.0) -> bool:
        """Drain (optionally), then stop the worker threads and processes.

        A job still running at this point (no drain, or a drain that timed
        out) is cancelled, so its thread comes back and no process is left.
        Each thread stops its own worker process on the way out.
        """
        drained = self.drain(timeout_s=timeout_s) if drain else True
        with self._lock:
            self._accepting = False
            self._stop.set()
            for job in self._jobs.values():
                if job.state == RUNNING:
                    job.cancel_event.set()
        for thread in self._threads:
            thread.join(timeout=5.0)
        return drained


def job_payload_json(job: Job) -> str:
    """The canonical JSON of a job's payload (diagnostics endpoint)."""
    return json.dumps(job.payload, indent=2, sort_keys=True) + "\n"
