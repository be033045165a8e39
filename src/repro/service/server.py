"""HTTP API layer of ``repro serve`` (pure stdlib, threaded).

Routes (all JSON unless noted)::

    GET    /healthz                      liveness probe
    GET    /stats                        queue depth, cache hit ratio, workers
    GET    /scenarios                    the scenario registry
    GET    /sweeps                       the sweep registry
    POST   /runs                         submit a scenario run (202; dedupes)
    POST   /sweeps                       submit a sweep grid run (202; dedupes)
    GET    /runs/{id}                    job status + progress
    DELETE /runs/{id}                    cancel a queued/running job
    GET    /runs/{id}/result             golden-rounded result document
    GET    /runs/{id}/payload            the canonical request payload
    GET    /runs/{id}/metrics?series=S   chunk-streamed metric series points
    GET    /runs/{id}/artifacts/{kind}   bundle artifact (csv | json | md)

``POST /runs`` accepts ``{"scenario": NAME}`` or an inline
``{"spec": {...}}`` (a :meth:`ScenarioSpec.to_dict` document) plus optional
``seed`` / ``scale`` / ``shards`` / ``timeout_s`` overrides.
Identical submissions dedupe to the same run id; a digest already in the
run store answers instantly with ``"cached": true``.  A full queue answers
``429`` with a ``Retry-After`` header; a draining server answers ``503``.

The server is a :class:`http.server.ThreadingHTTPServer` — requests are
cheap bookkeeping only, all heavy work happens in the
:class:`~repro.service.jobs.JobManager` worker pool.
"""

from __future__ import annotations

import json
import math
import re
import threading
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.core.config import HOUR
from repro.scenarios.artifacts import ARTIFACT_FILES, DIGEST_FILENAME, RESULT_FILENAME
from repro.scenarios.library import get_scenario, iter_scenarios
from repro.scenarios.spec import ScenarioSpec
from repro.service.jobs import (
    DONE,
    FAILED,
    JobManager,
    QueueFullError,
    ServiceClosedError,
    canonical_scenario_payload,
    canonical_sweep_payload,
    job_payload_json,
    wall_clock,
)
from repro.service.store import RunStore

__all__ = ["ServiceConfig", "ReproService"]

_MAX_BODY_BYTES = 4 * 1024 * 1024
#: the header of a response after which the server closes the connection
_CLOSE = {"Connection": "close"}
_RUN_PATH = re.compile(r"^/runs/(?P<id>[0-9a-f]{16,64})(?P<rest>/.*)?$")


class ApiError(Exception):
    """An error response: HTTP status + JSON body (+ optional headers)."""

    def __init__(
        self,
        status: int,
        message: str,
        headers: Optional[Dict[str, str]] = None,
        extra: Optional[Dict[str, object]] = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.headers = headers or {}
        self.extra = extra or {}


@dataclass
class ServiceConfig:
    """Everything ``repro serve`` needs to boot one service instance."""

    host: str = "127.0.0.1"
    port: int = 0  # 0: pick an ephemeral port (reported once bound)
    workers: Optional[int] = None  # None: CPU-affinity default, capped at 4
    max_queue: int = 16
    store_dir: Path = field(default_factory=lambda: Path("run-store"))
    store_max_bytes: Optional[int] = None
    #: per-job wall-clock timeout; None disables (jobs are finite anyway)
    timeout_s: Optional[float] = 1 * HOUR
    #: log requests to stderr (quiet by default: tests drive the API hard)
    verbose: bool = False


class _ServiceHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server carrying its owning :class:`ReproService`."""

    daemon_threads = True
    allow_reuse_address = True
    service: "ReproService"


class ReproService:
    """One live service instance: store + job manager + HTTP server."""

    def __init__(
        self,
        config: ServiceConfig,
        executor: Optional[Callable[..., Dict[str, str]]] = None,
        clock: Callable[[], float] = wall_clock,
    ) -> None:
        self.config = config
        self.store = RunStore(config.store_dir, max_bytes=config.store_max_bytes)
        self.manager = JobManager(
            self.store,
            workers=config.workers,
            max_queue=config.max_queue,
            timeout_s=config.timeout_s,
            clock=clock,
            executor=executor,
        )
        self._clock = clock
        self._started_at = clock()
        self._httpd: Optional[_ServiceHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Bind the listening socket and serve requests on a daemon thread."""
        if self._httpd is not None:
            raise RuntimeError("service already started")
        httpd = _ServiceHTTPServer(
            (self.config.host, self.config.port), _Handler
        )
        httpd.service = self
        self._httpd = httpd
        self._thread = threading.Thread(
            target=httpd.serve_forever, name="repro-serve-http", daemon=True
        )
        self._thread.start()

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` to the ephemeral choice)."""
        if self._httpd is None:
            raise RuntimeError("service not started")
        return int(self._httpd.server_address[1])

    @property
    def url(self) -> str:
        return f"http://{self.config.host}:{self.port}"

    def stop(self, drain: bool = True, timeout_s: float = 60.0) -> bool:
        """Graceful shutdown: stop accepting, finish in-flight jobs.

        Returns True when every job reached a terminal state in time.  The
        run store is already durable at this point (every completed job was
        published atomically), so a drained exit loses nothing.  Order: the
        manager first (status polls are answered while jobs drain; its worker
        processes are gone when it returns), then the listener, and the
        store's index last, once nothing can touch an entry any more.
        """
        drained = self.manager.shutdown(drain=drain, timeout_s=timeout_s)
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self.store.flush()
        return drained

    # -- request handling (called from handler threads) ----------------------

    def handle(
        self, method: str, path: str, query: Dict[str, List[str]], body: bytes
    ) -> Tuple[int, Dict[str, str], object]:
        """Dispatch one request; returns ``(status, headers, body_document)``.

        ``body_document`` is JSON-serialised by the handler unless it is a
        :class:`_Raw` (pre-serialised text) or :class:`_Stream` (chunked).
        """
        if method == "GET" and path == "/healthz":
            return 200, {}, {"status": "ok", "uptime_s": self._clock() - self._started_at}
        if method == "GET" and path == "/stats":
            return 200, {}, self._stats()
        if method == "GET" and path == "/scenarios":
            return 200, {}, self._scenarios()
        if method == "GET" and path == "/sweeps":
            return 200, {}, self._sweeps()
        if method == "POST" and path == "/runs":
            return self._submit_run(body)
        if method == "POST" and path == "/sweeps":
            return self._submit_sweep(body)
        match = _RUN_PATH.match(path)
        if match is not None:
            return self._dispatch_run(
                method, match.group("id"), match.group("rest") or "", query
            )
        raise ApiError(404, f"no route for {method} {path}")

    # -- registry listings ---------------------------------------------------

    def _scenarios(self) -> Dict[str, object]:
        return {
            "scenarios": [
                {
                    "name": spec.name,
                    "tier": spec.tier,
                    "systems": list(spec.systems),
                    "duration_hours": spec.duration_s / HOUR,
                    "description": spec.description,
                }
                for spec in iter_scenarios()
            ]
        }

    def _sweeps(self) -> Dict[str, object]:
        from repro.sweeps.library import iter_sweeps

        return {
            "sweeps": [
                {
                    "name": sweep.name,
                    "base": sweep.base,
                    "cells": sweep.num_cells,
                    "grid": list(sweep.grid_shape),
                    "description": sweep.description,
                }
                for sweep in iter_sweeps()
            ]
        }

    def _stats(self) -> Dict[str, object]:
        document = self.manager.stats()
        document["store"] = {
            "entries": len(self.store),
            "bytes": self.store.total_bytes(),
            "max_bytes": self.store.max_bytes,
            "evictions": self.store.evictions,
        }
        document["uptime_s"] = self._clock() - self._started_at
        return document

    # -- submissions ---------------------------------------------------------

    def _submit_run(self, body: bytes) -> Tuple[int, Dict[str, str], object]:
        document = _parse_json_object(body)
        scenario = document.get("scenario")
        inline_spec = document.get("spec")
        if (scenario is None) == (inline_spec is None):
            raise ApiError(
                400, "provide exactly one of 'scenario' (a registered name) "
                     "or 'spec' (an inline ScenarioSpec document)"
            )
        try:
            if scenario is not None:
                spec = get_scenario(str(scenario))
            else:
                if not isinstance(inline_spec, dict):
                    raise ValueError("'spec' must be a JSON object")
                spec = ScenarioSpec.from_dict(inline_spec)
            scale = _opt_float(document, "scale")
            payload = canonical_scenario_payload(
                spec,
                seed=_opt_int(document, "seed"),
                scale=1.0 if scale is None else scale,
                shards=_opt_int(document, "shards"),
            )
            timeout_s = _opt_timeout(document)
        except (KeyError, TypeError, ValueError, OverflowError) as error:
            raise ApiError(400, f"invalid run request: {_error_text(error)}") from None
        return self._enqueue(payload, label=spec.name, timeout_s=timeout_s)

    def _submit_sweep(self, body: bytes) -> Tuple[int, Dict[str, str], object]:
        document = _parse_json_object(body)
        name = document.get("sweep")
        if not isinstance(name, str) or not name:
            raise ApiError(400, "provide 'sweep': the registered sweep name")
        try:
            scale = _opt_float(document, "scale")
            payload = canonical_sweep_payload(
                name,
                seed=_opt_int(document, "seed"),
                scale=1.0 if scale is None else scale,
            )
            jobs = _opt_int(document, "jobs")
            if jobs is not None and jobs < 1:
                raise ValueError(f"'jobs' must be positive, got {jobs!r}")
            timeout_s = _opt_timeout(document)
        except (KeyError, TypeError, ValueError, OverflowError) as error:
            raise ApiError(400, f"invalid sweep request: {_error_text(error)}") from None
        execution = {} if jobs is None else {"jobs": jobs}
        return self._enqueue(payload, label=name, execution=execution, timeout_s=timeout_s)

    def _enqueue(
        self,
        payload: Dict[str, object],
        label: str,
        execution: Optional[Dict[str, object]] = None,
        timeout_s: Optional[float] = None,
    ) -> Tuple[int, Dict[str, str], object]:
        try:
            job, cached = self.manager.submit(
                payload, label=label, execution=execution, timeout_s=timeout_s
            )
        except QueueFullError as error:
            raise ApiError(
                429,
                str(error),
                headers={"Retry-After": str(error.retry_after_s)},
                extra={"retry_after_s": error.retry_after_s},
            ) from None
        except ServiceClosedError as error:
            raise ApiError(503, str(error)) from None
        status = 200 if cached and job.state == DONE else 202
        return (
            status,
            {"Location": f"/runs/{job.id}"},
            {
                "id": job.id,
                "state": job.state,
                "cached": cached,
                "digest": job.digest,
                "location": f"/runs/{job.id}",
            },
        )

    # -- per-run routes ------------------------------------------------------

    def _dispatch_run(
        self, method: str, run_id: str, rest: str, query: Dict[str, List[str]]
    ) -> Tuple[int, Dict[str, str], object]:
        job = self.manager.get(run_id)
        if job is None:
            raise ApiError(404, f"unknown run id {run_id!r}")
        if method == "DELETE" and not rest:
            cancelled = self.manager.cancel(run_id)
            assert cancelled is not None
            return 200, {}, cancelled.to_dict(clock_now=self._clock())
        if method != "GET":
            raise ApiError(405, f"{method} not allowed on /runs/{run_id}{rest}")
        if not rest:
            document = job.to_dict(clock_now=self._clock())
            document["links"] = {
                "result": f"/runs/{job.id}/result",
                "metrics": f"/runs/{job.id}/metrics",
                "artifacts": {
                    kind: f"/runs/{job.id}/artifacts/{kind}"
                    for kind in sorted(ARTIFACT_FILES)
                },
            }
            return 200, {}, document
        if rest == "/payload":
            return 200, {}, _Raw(job_payload_json(job), "application/json")
        # A route that does not exist is a 404 whatever the job's state; only
        # a real one can answer "not finished yet".
        artifact = re.match(r"^/artifacts/(?P<kind>[a-z]+)$", rest)
        if artifact is not None:
            kind = artifact.group("kind")
            if kind not in ARTIFACT_FILES:
                raise ApiError(
                    404,
                    f"unknown artifact kind {kind!r}; "
                    f"expected one of {sorted(ARTIFACT_FILES)}",
                )
        elif rest not in ("/result", "/metrics"):
            raise ApiError(404, f"no route for GET /runs/{run_id}{rest}")
        if job.state != DONE:
            if job.state == FAILED:
                raise ApiError(
                    409,
                    f"run {job.id} failed",
                    extra={"state": job.state, "detail": job.detail},
                )
            raise ApiError(
                409, f"run {job.id} is {job.state}", extra={"state": job.state}
            )
        if rest == "/result":
            return 200, {}, _Raw(
                self.store.read_document(job.digest, DIGEST_FILENAME),
                "application/json",
            )
        if rest == "/metrics":
            return self._metrics(job.digest, query)
        content_type = {
            "csv": "text/csv",
            "json": "application/json",
            "md": "text/markdown",
        }[kind]
        return 200, {}, _Raw(
            self.store.read_document(job.digest, ARTIFACT_FILES[kind]), content_type
        )

    def _metrics(
        self, digest: str, query: Dict[str, List[str]]
    ) -> Tuple[int, Dict[str, str], object]:
        document = json.loads(self.store.read_document(digest, RESULT_FILENAME))
        systems = document.get("systems", {})
        system = query.get("system", ["flower"])[0]
        if system not in systems:
            raise ApiError(
                404, f"no system {system!r} in this run; have {sorted(systems)}"
            )
        series_map = systems[system].get("series", {})
        names = query.get("series")
        if not names:
            return 200, {}, {"system": system, "series": sorted(series_map)}
        name = names[0]
        if name not in series_map:
            raise ApiError(
                404, f"no series {name!r} for {system!r}; have {sorted(series_map)}"
            )
        points = series_map[name]

        def chunks() -> "List[str]":
            return [
                json.dumps({"t": point[0], "v": point[1]}, sort_keys=True) + "\n"
                for point in points
            ]

        return 200, {}, _Stream(chunks, "application/x-ndjson")


# -- response value types ------------------------------------------------------


class _Raw:
    """A pre-serialised response body with its content type."""

    __slots__ = ("text", "content_type")

    def __init__(self, text: str, content_type: str) -> None:
        self.text = text
        self.content_type = content_type


class _Stream:
    """A chunk-streamed response: a thunk yielding text chunks."""

    __slots__ = ("chunks", "content_type")

    def __init__(self, chunks: Callable[[], List[str]], content_type: str) -> None:
        self.chunks = chunks
        self.content_type = content_type


# -- the request handler -------------------------------------------------------


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    # -- plumbing ------------------------------------------------------------

    @property
    def _service(self) -> ReproService:
        server = self.server
        assert isinstance(server, _ServiceHTTPServer)
        return server.service

    def log_message(self, format: str, *args: object) -> None:
        if self._service.config.verbose:
            super().log_message(format, *args)

    def _read_body(self) -> bytes:
        declared = self.headers.get("Content-Length", "0") or "0"
        try:
            length = int(declared)
        except ValueError:
            length = -1
        # Either way the body stays unread, so nothing after it on this
        # connection can be parsed as the next request: answer and close.
        if length < 0:
            self.close_connection = True
            raise ApiError(400, f"invalid Content-Length {declared!r}", _CLOSE)
        if length > _MAX_BODY_BYTES:
            self.close_connection = True
            raise ApiError(413, f"request body too large ({length} bytes)", _CLOSE)
        return self.rfile.read(length) if length else b""

    def _respond(self, status: int, headers: Dict[str, str], document: object) -> None:
        if isinstance(document, _Stream):
            self.send_response(status)
            self.send_header("Content-Type", document.content_type)
            self.send_header("Transfer-Encoding", "chunked")
            for key, value in headers.items():
                self.send_header(key, value)
            self.end_headers()
            if self.command == "HEAD":
                return
            for chunk in document.chunks():
                data = chunk.encode("utf-8")
                self.wfile.write(f"{len(data):x}\r\n".encode("ascii"))
                self.wfile.write(data + b"\r\n")
            self.wfile.write(b"0\r\n\r\n")
            return
        if isinstance(document, _Raw):
            payload = document.text.encode("utf-8")
            content_type = document.content_type
        else:
            payload = (
                json.dumps(document, indent=2, sort_keys=True) + "\n"
            ).encode("utf-8")
            content_type = "application/json"
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        for key, value in headers.items():
            self.send_header(key, value)
        self.end_headers()
        if self.command != "HEAD":
            self.wfile.write(payload)

    def _handle(self, method: str) -> None:
        try:
            split = urlsplit(self.path)
            body = self._read_body()
            status, headers, document = self._service.handle(
                method, split.path, parse_qs(split.query), body
            )
            self._respond(status, headers, document)
        except ApiError as error:
            error_document: Dict[str, object] = {"error": error.message}
            error_document.update(error.extra)
            self._respond(error.status, error.headers, error_document)
        except (BrokenPipeError, ConnectionResetError):  # pragma: no cover
            pass  # client went away mid-response
        except Exception as error:  # never let a handler bug kill the thread
            self._respond(500, {}, {"error": f"internal error: {_error_text(error)}"})

    # -- verbs ---------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server naming convention
        self._handle("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._handle("POST")

    def do_DELETE(self) -> None:  # noqa: N802
        self._handle("DELETE")

    def do_HEAD(self) -> None:  # noqa: N802
        self._handle("GET")


# -- small parsing helpers -----------------------------------------------------


def _parse_json_object(body: bytes) -> Dict[str, object]:
    if not body:
        raise ApiError(400, "a JSON request body is required")
    try:
        document = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ApiError(400, f"request body is not valid JSON: {error}") from None
    if not isinstance(document, dict):
        raise ApiError(400, "request body must be a JSON object")
    return document


def _opt_int(document: Dict[str, object], key: str) -> Optional[int]:
    value = document.get(key)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{key!r} must be an integer")
    return value


def _opt_float(document: Dict[str, object], key: str) -> Optional[float]:
    value = document.get(key)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{key!r} must be a number")
    number = float(value)  # (a huge integer raises OverflowError: a 400 as well)
    # JSON bodies may carry NaN / Infinity: neither is a scale or a deadline.
    if not math.isfinite(number):
        raise ValueError(f"{key!r} must be finite, got {number!r}")
    return number


def _opt_timeout(document: Dict[str, object]) -> Optional[float]:
    timeout_s = _opt_float(document, "timeout_s")
    if timeout_s is not None and timeout_s <= 0:
        raise ValueError(f"'timeout_s' must be positive, got {timeout_s!r}")
    return timeout_s


def _error_text(error: BaseException) -> str:
    return str(error) or error.__class__.__name__
