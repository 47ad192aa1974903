"""Consistent-hash routing front-end for the multi-process tier.

``repro serve --workers N`` answers the GIL problem structurally: one
front-end process owns the listening socket and does only cheap work —
read the JSON batch, hash each request's program text, forward
sub-batches to worker processes over loopback HTTP — while the N
workers (:mod:`repro.serve.workers`) burn their own interpreters on
parsing, spec computation, and query evaluation.

Routing
-------

The ring (:class:`HashRing`) hashes each worker id to
:data:`RING_REPLICAS` points on a 64-bit circle; a request routes to
the first live worker clockwise of its program text's own point.  The
front-end never parses: every request carrying one program text lands
on one worker, whose in-memory LRU therefore stays hot for exactly its
texts, and the worker produces any parse error.  Byte-different texts
of one program may land on different workers; with a shared SQLite
:class:`~repro.serve.cache.SpecCache` (``--cache``) they still share
one spec through it and its flight lease, which also make rerouting
after a crash a cache hit, not a recompute.

Failure handling
----------------

A forward that dies (connection refused/reset, truncated response)
marks the worker down via :meth:`WorkerPool.report_failure` — waking
the supervisor to respawn it — and the affected requests re-enter
routing against the surviving workers.  Queries are read-only, so
retrying is always safe; a retried request's response is marked
``"retried": true`` and counted in ``/stats``.  Only when *no* worker
becomes routable within :data:`RETRY_DEADLINE` seconds does a request
fail, and then as a per-request ``ok: false`` response, never a
dropped connection.

Telemetry
---------

The front-end root span's trace id is forwarded to workers via
``X-Repro-Trace-Id``, so one id ties the client response, the
front-end access log, and the worker-side spans together.  ``/stats``
aggregates every worker's counters (plus per-worker rows and the
front-end's own routing counters); ``/metrics`` renders the same
aggregate through :func:`repro.serve.service.render_prometheus` with
``repro_worker_*`` and ``repro_frontend_*`` series appended.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import threading
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from http.server import ThreadingHTTPServer
from typing import Sequence, Union

from ..obs.telemetry import LatencyHistogram, Telemetry
from .server import MAX_BODY_BYTES, AccessLog, _Handler
from .service import render_prometheus
from .workers import WorkerPool

#: Virtual nodes per worker on the ring.  64 keeps the key ranges of a
#: small pool balanced to within a few percent while the ring stays
#: tiny (N*64 points).
RING_REPLICAS = 64

#: Give up routing a request after this many seconds without any live
#: worker (the supervisor usually respawns one in well under a second).
RETRY_DEADLINE = 15.0

#: Socket timeout of a forward to a worker.  Generous: a slow cold
#: spec computation must not masquerade as a dead worker.
WORKER_TIMEOUT = 120.0


def _hash64(data: str) -> int:
    digest = hashlib.sha256(data.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class HashRing:
    """Consistent hashing of string keys onto integer node ids.

    Deterministic by construction (SHA-256, no process randomness):
    every front-end — including one restarted mid-conversation — maps
    the same key to the same worker.  ``route`` walks clockwise past
    dead nodes, so removing a node only moves *its* keys and restoring
    it moves exactly those keys back (property-tested in
    ``tests/test_serve_multiprocess.py``).
    """

    def __init__(self, nodes: Sequence[int]):
        if not nodes:
            raise ValueError("a hash ring needs at least one node")
        self.nodes = tuple(nodes)
        points = []
        for node in self.nodes:
            for replica in range(RING_REPLICAS):
                points.append((_hash64(f"{node}#{replica}"), node))
        points.sort()
        self._points = points
        self._positions = [position for position, _ in points]

    def route(self, key: str,
              alive: Union[Sequence[int], None] = None
              ) -> Union[int, None]:
        """The live node owning ``key``; None when nothing is alive."""
        live = set(self.nodes if alive is None else alive)
        if not live:
            return None
        start = bisect_right(self._positions, _hash64(key))
        count = len(self._points)
        for step in range(count):
            node = self._points[(start + step) % count][1]
            if node in live:
                return node
        return None


@dataclass
class _FrontEndCounters:
    requests: int = 0
    batches: int = 0
    forwards: int = 0
    retries: int = 0
    retried_requests: int = 0
    unrouted: int = 0
    routed: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "requests": self.requests,
            "batches": self.batches,
            "forwards": self.forwards,
            "retries": self.retries,
            "retried_requests": self.retried_requests,
            "unrouted": self.unrouted,
            "routed": {str(worker): count
                       for worker, count in sorted(self.routed.items())},
        }


class _ForwardFailed(Exception):
    """A worker could not produce a usable response; retry elsewhere."""


class FrontEnd(ThreadingHTTPServer):
    """The routing HTTP front-end over a :class:`WorkerPool`."""

    daemon_threads = True
    request_queue_size = 128

    def __init__(self, address, pool: WorkerPool,
                 quiet: bool = True,
                 access_log: Union[AccessLog, None] = None,
                 slow_ms: Union[float, None] = None,
                 telemetry: Union[Telemetry, None] = None,
                 max_body_bytes: int = MAX_BODY_BYTES,
                 collector=None):
        self.pool = pool
        self.ring = HashRing([w.id for w in pool.workers])
        self.quiet = quiet
        self.access_log = access_log
        self.slow_ms = slow_ms
        self.telemetry = (telemetry if telemetry is not None
                          else Telemetry())
        self.max_body_bytes = max_body_bytes
        #: Front-end-side end-to-end latency (includes routing and the
        #: forward round-trip); the aggregated ``latency`` block in
        #: ``/stats`` is the workers' own service-side histogram.
        self.latency = LatencyHistogram()
        self._counters = _FrontEndCounters()
        self._counters_lock = threading.Lock()
        super().__init__(address, _FrontEndHandler)
        #: Optional :class:`repro.serve.collect.Collector` — the tier's
        #: aggregation terminal.  Attached *after* the socket is bound
        #: so the workers' collect URL can carry the real port: a pool
        #: constructed (but not yet started) with this front-end will
        #: spawn its workers pointing at ``/ingest`` here.
        self.collector = collector
        if collector is not None:
            if self.telemetry.collector is None:
                self.telemetry.collector = collector
            port = self.server_address[1]
            pool.set_collect_url(f"http://127.0.0.1:{port}/ingest")

    # -- delivery --------------------------------------------------------

    def deliver(self, entries: list, root) -> tuple[dict, int]:
        """Forward routed entries until each has a response.

        ``entries`` are ``{"index", "program", "item", "attempts"}``
        dictionaries.  Returns ``(responses_by_index,
        total_failed_forward_attempts)``.  Requests whose worker dies
        mid-flight re-enter routing against the survivors; only a
        tier with no routable worker for :data:`RETRY_DEADLINE` seconds
        produces ``ok: false`` fallback responses.
        """
        results: dict = {}
        pending = list(entries)
        give_up_at = time.monotonic() + RETRY_DEADLINE
        retries = 0
        while pending:
            alive = self.pool.alive_ids()
            if not alive:
                if time.monotonic() >= give_up_at:
                    break
                time.sleep(0.05)
                continue
            groups: dict = {}
            for entry in pending:
                worker_id = self.ring.route(entry["program"], alive)
                groups.setdefault(worker_id, []).append(entry)
            outcomes: list = []

            def forward(worker_id, group):
                outcomes.append(
                    self._forward_group(worker_id, group, root))

            if len(groups) == 1:
                forward(*next(iter(groups.items())))
            else:
                threads = [threading.Thread(target=forward, args=pair)
                           for pair in groups.items()]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
            failed: list = []
            for delivered, group_failed in outcomes:
                results.update(delivered)
                failed.extend(group_failed)
            if failed:
                retries += len(failed)
                with self._counters_lock:
                    self._counters.retries += len(failed)
                for entry in failed:
                    entry["attempts"] += 1
                if time.monotonic() >= give_up_at:
                    pending = failed
                    break
                time.sleep(0.02)
            pending = failed
        for entry in pending:
            results[entry["index"]] = self._unrouted_response(entry,
                                                              root)
        return results, retries

    def _forward_group(self, worker_id: int, group: list,
                       root) -> tuple[dict, list]:
        """POST one sub-batch to one worker; (delivered, failed)."""
        port, generation, alive = self.pool.snapshot(worker_id)
        if not alive or port is None:
            return {}, group
        span = self.telemetry.span("forward", parent=root,
                                   worker=worker_id,
                                   requests=len(group))
        body = json.dumps(
            {"requests": [entry["item"] for entry in group]}
        ).encode("utf-8")
        try:
            data = self._post_worker(port, body, root.trace_id,
                                     span.context.span_id)
            responses = data["responses"]
            if len(responses) != len(group):
                raise _ForwardFailed(
                    f"worker {worker_id} returned {len(responses)} "
                    f"responses for {len(group)} requests")
        except _ForwardFailed as exc:
            span.set_attribute("error", str(exc))
            span.end()
            self.pool.report_failure(worker_id, generation)
            return {}, group
        span.end()
        delivered = {}
        retried = 0
        for entry, response in zip(group, responses):
            response["worker"] = worker_id
            if entry["attempts"]:
                response["retried"] = True
                retried += 1
            delivered[entry["index"]] = response
        with self._counters_lock:
            self._counters.forwards += 1
            self._counters.retried_requests += retried
            self._counters.routed[worker_id] = (
                self._counters.routed.get(worker_id, 0) + len(group))
        return delivered, []

    def _post_worker(self, port: int, body: bytes, trace_id: str,
                     parent_span: Union[str, None] = None) -> dict:
        headers = {"Content-Type": "application/json",
                   "X-Repro-Trace-Id": trace_id}
        if parent_span is not None:
            # The worker roots its http.request span under the
            # forward span, so the collector can stitch the two
            # processes' trees into one.
            headers["X-Repro-Parent-Span"] = parent_span
        connection = http.client.HTTPConnection(
            "127.0.0.1", port, timeout=WORKER_TIMEOUT)
        try:
            connection.request("POST", "/query", body, headers)
            response = connection.getresponse()
            payload = response.read()
            if response.status != 200:
                raise _ForwardFailed(
                    f"worker answered {response.status}: "
                    f"{payload[:200]!r}")
            return json.loads(payload)
        except (OSError, http.client.HTTPException, ValueError) as exc:
            raise _ForwardFailed(str(exc)) from exc
        finally:
            connection.close()

    def _unrouted_response(self, entry: dict, root) -> dict:
        item = entry["item"] if isinstance(entry["item"], dict) else {}
        with self._counters_lock:
            self._counters.unrouted += 1
        return {
            "ok": False,
            "kind": item.get("kind", "ask"),
            "answer": None,
            "degraded": False,
            "refused": False,
            "source": None,
            "key": None,
            "error": ("no live worker within the "
                      f"{RETRY_DEADLINE:g}s retry deadline"),
            "elapsed_ms": 0.0,
            "duration_ms": 0.0,
            "trace_id": root.trace_id,
            "retried": entry["attempts"] > 0,
            "worker": None,
        }

    # -- aggregated observability ---------------------------------------

    def _collect_workers(self) -> list:
        """Per-worker rows: pool state + routed counts + live stats."""
        with self._counters_lock:
            routed = dict(self._counters.routed)
        rows = []
        for row in self.pool.describe():
            row["routed"] = routed.get(row["id"], 0)
            if row["up"] and row["port"] is not None:
                try:
                    row["stats"] = self._fetch_json(row["port"],
                                                    "/stats")
                except (OSError, http.client.HTTPException,
                        ValueError):
                    row["up"] = False
            rows.append(row)
        return rows

    def _fetch_json(self, port: int, path: str,
                    timeout: float = 5.0) -> dict:
        connection = http.client.HTTPConnection("127.0.0.1", port,
                                                timeout=timeout)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            if response.status != 200:
                raise ValueError(f"{path} answered {response.status}")
            return json.loads(response.read())
        finally:
            connection.close()

    def counters(self) -> dict:
        with self._counters_lock:
            snapshot = self._counters.to_dict()
        snapshot["workers"] = len(self.pool.workers)
        snapshot["workers_up"] = len(self.pool.alive_ids())
        snapshot["worker_restarts"] = self.pool.restarts
        return snapshot

    def health_payload(self) -> dict:
        from .. import __version__
        from ..obs.trace import TRACE_SCHEMA
        return {"ok": True, "version": __version__,
                "trace_schema": TRACE_SCHEMA, "role": "frontend",
                "workers": len(self.pool.workers),
                "workers_up": len(self.pool.alive_ids())}

    def _aggregate(self, rows: list) -> tuple[dict, dict,
                                              LatencyHistogram]:
        stats = [row["stats"] for row in rows if "stats" in row]
        serve = _sum_counters([s["serve"] for s in stats],
                              _zero_serve())
        cache = _sum_counters([s["cache"] for s in stats],
                              _zero_cache())
        latency = LatencyHistogram.from_dicts(
            [s["latency"] for s in stats])
        return serve, cache, latency

    def stats_dict(self) -> dict:
        """``GET /stats``: the single-process shape (``serve`` /
        ``cache`` / ``latency``), aggregated across workers so
        ``repro top`` and the CI reconciliation work unchanged, plus
        ``frontend`` (routing counters) and per-worker ``workers``
        rows."""
        rows = self._collect_workers()
        serve, cache, latency = self._aggregate(rows)
        frontend = self.counters()
        frontend["latency"] = self.latency.to_dict()
        stats = {"serve": serve, "cache": cache,
                 "latency": latency.to_dict(),
                 "frontend": frontend, "workers": rows}
        if self.collector is not None:
            stats["collector"] = self.collector.counters()
        return stats

    def prometheus_text(self) -> str:
        rows = self._collect_workers()
        serve, cache, latency = self._aggregate(rows)
        frontend = self.counters()
        lines = [
            "# HELP repro_workers Configured worker processes.",
            "# TYPE repro_workers gauge",
            f"repro_workers {frontend['workers']}",
            "# HELP repro_workers_up Workers currently routable.",
            "# TYPE repro_workers_up gauge",
            f"repro_workers_up {frontend['workers_up']}",
            "# HELP repro_worker_up Liveness of one worker.",
            "# TYPE repro_worker_up gauge",
        ]
        for row in rows:
            lines.append(
                f'repro_worker_up{{worker="{row["id"]}"}} '
                f'{1 if row["up"] else 0}')
        lines.append("# HELP repro_worker_restarts_total "
                     "Respawns of one worker.")
        lines.append("# TYPE repro_worker_restarts_total counter")
        for row in rows:
            lines.append(
                f'repro_worker_restarts_total{{worker="{row["id"]}"}} '
                f'{row["restarts"]}')
        lines.append("# HELP repro_worker_routed_total "
                     "Requests routed to one worker.")
        lines.append("# TYPE repro_worker_routed_total counter")
        for row in rows:
            lines.append(
                f'repro_worker_routed_total{{worker="{row["id"]}"}} '
                f'{row["routed"]}')
        for name, help_text in (
                ("requests", "Query requests accepted."),
                ("forwards", "Sub-batches forwarded to workers."),
                ("retries", "Failed forward attempts retried."),
                ("retried_requests",
                 "Requests that needed more than one worker."),
                ("unrouted",
                 "Requests failed with no routable worker.")):
            lines.append(f"# HELP repro_frontend_{name}_total "
                         f"{help_text}")
            lines.append(f"# TYPE repro_frontend_{name}_total counter")
            lines.append(f"repro_frontend_{name}_total "
                         f"{frontend[name]}")
        if self.collector is not None:
            lines.extend(self.collector.prometheus_lines())
        return render_prometheus(serve, cache, latency,
                                 extra_lines=lines)

    def attach_stats(self, stats) -> None:
        """Mirror :meth:`QueryService.attach_stats` for ``--stats``."""
        aggregated = self.stats_dict()
        stats.extra["serve"] = aggregated["serve"]
        stats.extra["cache"] = aggregated["cache"]
        stats.extra["latency"] = aggregated["latency"]
        stats.extra["frontend"] = aggregated["frontend"]


def _zero_serve() -> dict:
    from .service import _ServeCounters
    return _ServeCounters().to_dict()


def _zero_cache() -> dict:
    from .cache import SpecCache
    return SpecCache().counters()


def _sum_counters(blocks: Sequence[dict], zero: dict) -> dict:
    """Sum integer counter dictionaries key-by-key over ``zero``."""
    total = dict(zero)
    for block in blocks:
        for key, value in block.items():
            if isinstance(value, bool) or not isinstance(value, int):
                continue
            total[key] = total.get(key, 0) + value
    return total


class _FrontEndHandler(_Handler):
    server: FrontEnd

    def _route_post(self, root) -> int:
        if self.path == "/ingest":
            return self._handle_ingest()
        return super()._route_post(root)

    def _handle_ingest(self) -> int:
        """``POST /ingest``: one worker collection envelope.

        Internal to the tier (workers POST here over loopback); bodies
        follow the envelope schema in :mod:`repro.serve.collect`.
        Malformed envelopes get a 400 and are counted — never raised —
        so a confused worker cannot take the front-end down.
        """
        collector = self.server.collector
        if collector is None:
            return self._reply(
                404, {"error": "collection is disabled on this tier"})
        try:
            length = int(self.headers.get("Content-Length", 0) or 0)
        except ValueError:
            return self._reply(400,
                               {"error": "unreadable Content-Length"})
        if length < 0:
            return self._reply(
                400, {"error": f"negative Content-Length {length}"})
        if length > self.server.max_body_bytes:
            return self._reply(413, {
                "error": f"ingest body of {length} bytes exceeds the "
                         f"{self.server.max_body_bytes} byte limit"},
                close=True)
        try:
            payload = json.loads(self.rfile.read(length) or b"{}")
            summary = collector.ingest(payload)
        except (ValueError, TypeError) as exc:
            collector.ingest_error()
            return self._reply(400, {"error": str(exc)})
        return self._reply(200, summary)

    def _handle_batch(self, raw: list, requests, root) -> int:
        frontend = self.server
        with frontend._counters_lock:
            frontend._counters.requests += len(raw)
            frontend._counters.batches += 1
        started = time.monotonic()
        entries = [{"index": index,
                    "program": request.program,
                    "item": item, "attempts": 0}
                   for index, (item, request)
                   in enumerate(zip(raw, requests))]
        results, retries = frontend.deliver(entries, root)
        ordered = [results[index] for index in range(len(raw))]
        batch_ms = (time.monotonic() - started) * 1e3
        for _ in ordered:
            frontend.latency.observe(batch_ms)
        self._log_extra = _summarize_routed(ordered, retries)
        return self._reply(200, {"responses": ordered})


def _summarize_routed(responses: Sequence[dict], retries: int) -> dict:
    """The `/query` access-log fields of a routed batch."""
    return {
        "n": len(responses),
        "degraded": sum(1 for r in responses if r.get("degraded")),
        "errors": sum(1 for r in responses if not r.get("ok")),
        "retries": retries,
        "retried": sum(1 for r in responses if r.get("retried")),
        "workers": sorted({r["worker"] for r in responses
                           if r.get("worker") is not None}),
    }


def make_frontend(pool: WorkerPool, host: str = "127.0.0.1",
                  port: int = 0, **kwargs) -> FrontEnd:
    """Bind (but do not run) a front-end; ``port=0`` picks a port."""
    return FrontEnd((host, port), pool, **kwargs)
