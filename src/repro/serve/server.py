"""HTTP front-end for the query service (stdlib only).

``repro serve`` binds a :class:`~http.server.ThreadingHTTPServer` whose
handler delegates to one shared :class:`~repro.serve.service.QueryService`
— the service's cache and single-flight machinery make the handler
threads safe to run concurrently.

JSON protocol (see docs/INTERNALS.md for the full schema):

* ``POST /query`` — body ``{"requests": [{"program", "query", "kind",
  "deadline", "expand"}, ...]}`` (or a single request object); responds
  ``{"responses": [...]}`` with one response per request, in order.
* ``GET /stats`` — serve + cache counters and the latency percentiles.
* ``GET /metrics`` — the same counters in Prometheus text format.
* ``GET /healthz`` — liveness probe with the package version and the
  trace schema version.

With collection on (a :class:`repro.serve.collect.Collector` attached):

* ``GET /trace`` — listing of retained traces; ``GET /trace/<id>`` —
  the assembled (cross-process, for a tier) span tree of one request.
* ``GET /profile`` — sliding-window per-rule profile plus lifetime
  per-rule totals.

Malformed bodies get a 400, oversized bodies a 413 — both with a JSON
``{"error": ...}`` body and a correct ``Content-Length``; per-request
failures (parse errors, unknown kinds) are *not* transport errors —
they come back 200 with ``ok: false`` on the affected response, so one
bad request cannot poison a batch.

Telemetry
---------

Every request runs under a root span: a valid ``X-Repro-Trace-Id``
request header is honored (and echoed back on the response), otherwise
a fresh trace id is minted.  The service hangs its parse / cache /
spec-compute / answer child spans off that root, so one trace id ties
together the response JSON, the exported span events, and the
structured access log (:class:`AccessLog`, one JSON line per HTTP
request).  Requests slower than ``slow_ms`` additionally dump their
full span tree — the slow-query log.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import IO, Union

from .service import QueryRequest, QueryService

#: Largest accepted request body, a guard against unbounded reads.
MAX_BODY_BYTES = 8 * 1024 * 1024


class AccessLog:
    """Thread-safe JSON-lines access log (one object per line).

    Each record carries at least ``ts`` (epoch seconds), ``trace_id``,
    ``method``, ``path``, ``status`` and ``duration_ms``; ``/query``
    lines add the program key(s), request kind(s), cache state(s) and
    degraded/error counts.  Opened in append mode when given a path,
    so restarts extend rather than truncate the log — and line-buffered,
    with an explicit flush per record, so every line is on disk before
    :meth:`write` returns (tail -f works, and a crash loses nothing).
    """

    def __init__(self, target: Union[str, Path, IO[str]]):
        if isinstance(target, (str, Path)):
            self._stream: IO[str] = open(target, "a", encoding="utf-8",
                                         buffering=1)
            self._owns_stream = True
        else:
            self._stream = target
            self._owns_stream = False
        self._lock = threading.Lock()
        self.lines = 0

    def write(self, record: dict) -> None:
        line = json.dumps(record, sort_keys=True,
                          separators=(",", ":"))
        with self._lock:
            self._stream.write(line + "\n")
            self._stream.flush()
            self.lines += 1

    def close(self) -> None:
        with self._lock:
            if self._owns_stream:
                self._stream.close()
            else:
                self._stream.flush()


class SpecServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`QueryService`."""

    daemon_threads = True
    # The socketserver default backlog (5) drops connections under a
    # 16-thread client burst; queue them instead.
    request_queue_size = 128

    def __init__(self, address: tuple[str, int], service: QueryService,
                 quiet: bool = True,
                 access_log: Union[AccessLog, None] = None,
                 slow_ms: Union[float, None] = None,
                 max_body_bytes: int = MAX_BODY_BYTES,
                 worker_id: Union[int, None] = None,
                 collector=None):
        self.service = service
        self.telemetry = service.telemetry
        self.quiet = quiet
        self.access_log = access_log
        self.slow_ms = slow_ms
        self.max_body_bytes = max_body_bytes
        #: Set when this server is one worker of a multi-process tier
        #: (``repro serve --workers N``); surfaces in ``/healthz``.
        self.worker_id = worker_id
        #: Optional :class:`repro.serve.collect.Collector`.  When set,
        #: ``GET /trace/<id>`` and ``GET /profile`` are served, and the
        #: collector's block/series join ``/stats`` and ``/metrics``.
        self.collector = collector
        super().__init__(address, _Handler)

    # -- endpoint payloads (overridden by the front-end) -----------------

    def health_payload(self) -> dict:
        from .. import __version__
        from ..obs.trace import TRACE_SCHEMA
        payload = {"ok": True, "version": __version__,
                   "trace_schema": TRACE_SCHEMA}
        if self.worker_id is not None:
            payload["worker"] = self.worker_id
        return payload

    def stats_dict(self) -> dict:
        stats = self.service.stats_dict()
        if self.collector is not None:
            stats["collector"] = self.collector.counters()
        return stats

    def prometheus_text(self) -> str:
        from .service import render_prometheus
        extra = ([] if self.collector is None
                 else self.collector.prometheus_lines())
        return render_prometheus(self.service.counters(),
                                 self.service.cache.counters(),
                                 self.service.latency,
                                 extra_lines=extra)


class _Handler(BaseHTTPRequestHandler):
    server: SpecServer

    # -- plumbing ---------------------------------------------------------

    def log_message(self, format: str, *args) -> None:
        if not self.server.quiet:
            super().log_message(format, *args)

    def _send(self, status: int, body: bytes, content_type: str,
              close: bool = False) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        trace_id = getattr(self, "_trace_id", None)
        if trace_id is not None:
            self.send_header("X-Repro-Trace-Id", trace_id)
        if close:
            # The request body was refused unread; the connection
            # cannot be reused.
            self.send_header("Connection", "close")
            self.close_connection = True
        self.end_headers()
        self.wfile.write(body)

    def _reply(self, status: int, payload: dict,
               close: bool = False) -> int:
        self._send(status, json.dumps(payload).encode("utf-8"),
                   "application/json", close=close)
        return status

    def _reply_text(self, status: int, text: str,
                    content_type: str) -> int:
        self._send(status, text.encode("utf-8"), content_type)
        return status

    # -- request lifecycle (span + access log + slow log) ----------------

    def _observed(self, method: str) -> None:
        telemetry = self.server.telemetry
        root = telemetry.root(
            "http.request",
            trace_id=self.headers.get("X-Repro-Trace-Id"),
            parent_id=self.headers.get("X-Repro-Parent-Span"),
            method=method, path=self.path)
        self._trace_id = root.trace_id
        self._log_extra: dict = {}
        status = 500
        try:
            if method == "GET":
                status = self._route_get(root)
            else:
                status = self._route_post(root)
        finally:
            root.set_attribute("status", status)
            duration_ms = root.end()
            self._record(method, status, duration_ms, root)

    def _record(self, method: str, status: int, duration_ms: float,
                root) -> None:
        log = self.server.access_log
        if log is not None:
            record = {
                "ts": round(time.time(), 3),
                "trace_id": root.trace_id,
                "method": method,
                "path": self.path,
                "status": status,
                "duration_ms": round(duration_ms, 3),
            }
            record.update(self._log_extra)
            log.write(record)
        slow_ms = self.server.slow_ms
        if slow_ms is not None and duration_ms >= slow_ms:
            slow = {
                "slow_query": True,
                "trace_id": root.trace_id,
                "duration_ms": round(duration_ms, 3),
                "threshold_ms": slow_ms,
                "spans": root.tree(),
            }
            if log is not None:
                log.write(slow)
            else:
                print(json.dumps(slow, sort_keys=True,
                                 separators=(",", ":")),
                      file=sys.stderr, flush=True)

    # -- routes -----------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server convention
        self._observed("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server convention
        self._observed("POST")

    def _route_get(self, root) -> int:
        if self.path == "/healthz":
            return self._reply(200, self.server.health_payload())
        if self.path == "/stats":
            return self._reply(200, self.server.stats_dict())
        if self.path == "/metrics":
            return self._reply_text(
                200, self.server.prometheus_text(),
                "text/plain; version=0.0.4; charset=utf-8")
        collector = getattr(self.server, "collector", None)
        if collector is not None:
            if self.path == "/profile":
                return self._reply(200, collector.profile_payload())
            if self.path == "/trace":
                return self._reply(200, collector.traces_payload())
            if self.path.startswith("/trace/"):
                return self._route_trace(collector,
                                         self.path[len("/trace/"):])
        return self._reply(404,
                           {"error": f"unknown path {self.path!r}"})

    def _route_trace(self, collector, trace_id: str) -> int:
        from ..obs.telemetry import valid_trace_id
        trace_id = trace_id.lower()
        if not valid_trace_id(trace_id):
            return self._reply(
                400, {"error": "a trace id is 8-64 hex characters"})
        tree = collector.trace_payload(trace_id)
        if tree is None:
            return self._reply(
                404, {"error": f"no retained trace {trace_id!r} "
                               "(the store is a bounded ring)"})
        return self._reply(200, tree)

    def _read_batch(self):
        """Read and validate a ``/query`` body.

        Returns ``(raw_items, requests)`` on success, or the int
        status of the error reply already sent.  ``raw_items`` are the
        verbatim request dictionaries (the front-end forwards those to
        workers unchanged); ``requests`` the validated
        :class:`QueryRequest` objects in the same order.
        """
        try:
            length = int(self.headers.get("Content-Length", 0) or 0)
        except ValueError:
            return self._reply(400,
                               {"error": "unreadable Content-Length"})
        if length < 0:
            return self._reply(
                400, {"error": f"negative Content-Length {length}"})
        if length > self.server.max_body_bytes:
            # Refused before reading: the body stays on the wire, so
            # the reply must close the connection.
            return self._reply(413, {
                "error": f"request body of {length} bytes exceeds "
                         f"the {self.server.max_body_bytes} byte "
                         "limit"}, close=True)
        try:
            data = json.loads(self.rfile.read(length) or b"{}")
            if isinstance(data, dict) and "requests" in data:
                raw = data["requests"]
            else:
                raw = [data]
            if not isinstance(raw, list) or not raw:
                raise ValueError(
                    "body must be a request object or "
                    "{'requests': [non-empty list]}")
            requests = [QueryRequest.from_dict(item) for item in raw]
        except RecursionError:
            return self._reply(400, {"error": "request body nests too "
                                              "deeply"})
        except (ValueError, TypeError) as exc:
            return self._reply(400, {"error": str(exc)})
        return raw, requests

    def _route_post(self, root) -> int:
        if self.path not in ("/query", "/"):
            return self._reply(
                404, {"error": f"unknown path {self.path!r}"})
        parsed = self._read_batch()
        if isinstance(parsed, int):
            return parsed
        raw, requests = parsed
        return self._handle_batch(raw, requests, root)

    def _handle_batch(self, raw: list, requests, root) -> int:
        responses = self.server.service.serve_batch(requests,
                                                    parent=root)
        self._log_extra = _summarize(responses)
        return self._reply(200, {"responses": [r.to_dict()
                                               for r in responses]})


def _summarize(responses) -> dict:
    """The per-request fields of a ``/query`` access-log line.

    Scalar for the common singleton batch, lists otherwise.
    """
    keys = [None if r.key is None else r.key[:12] for r in responses]
    kinds = [r.kind for r in responses]
    sources = [("degraded" if r.degraded else r.source)
               for r in responses]
    summary = {
        "n": len(responses),
        "degraded": sum(1 for r in responses if r.degraded),
        "errors": sum(1 for r in responses if not r.ok),
    }
    if len(responses) == 1:
        summary.update(program=keys[0], kind=kinds[0],
                       cache=sources[0])
    else:
        summary.update(program=keys, kind=kinds, cache=sources)
    return summary


def make_server(service: QueryService, host: str = "127.0.0.1",
                port: int = 0, quiet: bool = True,
                access_log: Union[AccessLog, None] = None,
                slow_ms: Union[float, None] = None,
                max_body_bytes: int = MAX_BODY_BYTES,
                worker_id: Union[int, None] = None,
                collector=None) -> SpecServer:
    """Bind (but do not run) a server; ``port=0`` picks a free port."""
    return SpecServer((host, port), service, quiet=quiet,
                      access_log=access_log, slow_ms=slow_ms,
                      max_body_bytes=max_body_bytes,
                      worker_id=worker_id, collector=collector)
