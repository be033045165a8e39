"""Live service tier: the ``repro serve`` HTTP job service.

Three layers, each its own module:

* :mod:`repro.service.server` — the stdlib HTTP API
  (:class:`ReproService` + :class:`ServiceConfig`);
* :mod:`repro.service.jobs` — bounded queue, digest-keyed dedup
  (:class:`JobManager`), over the warm worker processes of
  :mod:`repro.service.workers`;
* :mod:`repro.service.store` — on-disk content-addressed run cache
  (:class:`RunStore`).

Everything executes through :class:`repro.session.Session`, so a service
run is byte-identical to the equivalent CLI run by construction.
"""

from repro.service.jobs import (
    CANCELLED,
    DONE,
    FAILED,
    JOB_STATES,
    QUEUED,
    RUNNING,
    Job,
    JobManager,
    QueueFullError,
    ServiceClosedError,
    canonical_scenario_payload,
    canonical_sweep_payload,
    execute_request,
)
from repro.service.server import ReproService, ServiceConfig
from repro.service.store import RunStore, StoredRun, request_digest

__all__ = [
    "ReproService",
    "ServiceConfig",
    "JobManager",
    "Job",
    "QueueFullError",
    "ServiceClosedError",
    "RunStore",
    "StoredRun",
    "request_digest",
    "canonical_scenario_payload",
    "canonical_sweep_payload",
    "execute_request",
    "QUEUED",
    "RUNNING",
    "DONE",
    "FAILED",
    "CANCELLED",
    "JOB_STATES",
]
