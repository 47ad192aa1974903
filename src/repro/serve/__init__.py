"""Spec serving: cache, batched query service, and HTTP front-end.

The production shape of Theorem 4.1 — compute the finite relational
specification once, then answer every query against it:

* :mod:`repro.serve.cache` — a content-addressed (SHA-256 of the
  normalized program + database) persistent spec cache, SQLite-backed
  with an in-process LRU in front;
* :mod:`repro.serve.service` — a thread-safe :class:`QueryService` with
  request batching, single-flight spec computation, per-request
  deadlines and graceful degradation to windowed evaluation;
* :mod:`repro.serve.server` — the ``repro serve`` JSON-over-HTTP
  front-end (stdlib ``ThreadingHTTPServer``) with request-level
  telemetry: per-request root spans (``X-Repro-Trace-Id`` honored and
  echoed), a Prometheus-format ``GET /metrics`` endpoint, a
  structured JSON access log, and a slow-query span-tree log;
* :mod:`repro.serve.workers` — supervised worker processes for the
  multi-process tier (``repro serve --workers N``): spawn, READY
  handshake, crash detection and respawn;
* :mod:`repro.serve.router` — the consistent-hash routing front-end
  of the tier: one process owning the listening socket, forwarding
  sub-batches to workers by a hash of the program text, retrying
  around worker crashes, and aggregating ``/stats`` and ``/metrics``;
* :mod:`repro.serve.collect` — cross-process observability collection:
  workers ship ended spans, sampled ``derive`` events, and windowed
  per-rule metrics to the front-end's ``POST /ingest``; the front-end
  assembles them into ``GET /trace/<id>`` trees and the
  ``GET /profile`` continuous profile;
* :mod:`repro.serve.top` — the ``repro top`` live dashboard polling
  ``GET /stats``.
"""

from .cache import (DISK, MEMORY, SpecCache, normalized_program,
                    program_key, tdd_key)
from .collect import Collector, CollectorClient
from .router import FrontEnd, HashRing, make_frontend
from .server import (MAX_BODY_BYTES, AccessLog, SpecServer,
                     make_server)
from .service import (COMPUTED, DeadlineExceeded, QueryRequest,
                      QueryResponse, QueryService, render_prometheus)
from .top import TopError, fetch_stats, run_top
from .workers import WorkerConfig, WorkerError, WorkerPool, worker_main

__all__ = [
    "SpecCache", "program_key", "tdd_key", "normalized_program",
    "QueryService", "QueryRequest", "QueryResponse", "DeadlineExceeded",
    "SpecServer", "make_server", "AccessLog", "MAX_BODY_BYTES",
    "FrontEnd", "HashRing", "make_frontend", "render_prometheus",
    "Collector", "CollectorClient",
    "WorkerPool", "WorkerConfig", "WorkerError", "worker_main",
    "TopError", "fetch_stats", "run_top",
    "MEMORY", "DISK", "COMPUTED",
]
