"""Shipping observability out of worker processes: the collection tier.

:mod:`repro.obs.collector` holds the process-neutral aggregation
structures (trace store, windowed rule profile); this module moves
data into them across process boundaries.

* :class:`Collector` lives where the aggregate view is served — the
  front-end of a tier, or directly inside a single-process ``repro
  serve``.  It is the terminal for three streams: locally ended spans
  (via :class:`~repro.obs.telemetry.Telemetry`'s ``collector`` hook),
  sampled ``derive`` events, and per-computation
  :class:`~repro.obs.metrics.MetricsRegistry` deltas — plus everything
  workers POST to ``/ingest``.
* :class:`CollectorClient` lives inside a tier worker.  It presents the
  *same* recording interface, but buffers into bounded deques and ships
  one JSON envelope to the front-end's ``/ingest`` endpoint every
  ``interval`` seconds from a daemon thread.

Crash-safety is by construction, not by protocol: the client never
acknowledges, never retries, and never queues more than its bounded
window.  A SIGKILLed worker loses at most the envelope it had not yet
flushed (≤ ``interval`` seconds of data); a front-end that cannot be
reached costs the worker one dropped envelope per interval and nothing
else — serving is never blocked on collection.

The ``/ingest`` envelope (one JSON object per POST)::

    {"worker": 0, "pid": 12345,
     "spans":   [ <span event>, ... ],
     "derives": [ <derive event + trace_id>, ... ],
     "rules":   [ <RuleMetrics.to_dict() delta>, ... ]}

Span and derive events are exactly the schema-3/4 trace events already
documented in docs/INTERNALS.md — collection reuses the trace schema
rather than inventing a parallel one.
"""

from __future__ import annotations

import json
import os
import threading
import urllib.error
import urllib.request
from collections import deque
from typing import Union

from ..obs.collector import RuleWindowAggregator, TraceStore

#: Default sampling stride for ``derive`` events: every Nth recorded
#: support edge is shipped (:class:`~repro.obs.provenance.
#: ProvenanceStore` semantics).  1 would ship every derivation of every
#: cold computation — far too hot for a collection path that must stay
#: under the E17 overhead gate.
DERIVE_SAMPLE = 16

#: Default worker-side flush cadence, seconds.  Also the upper bound on
#: data lost when a worker dies mid-window.
FLUSH_INTERVAL = 1.0

#: Bound on buffered span/derive events between flushes (per stream);
#: overflow drops the *oldest* buffered event first.
MAX_BUFFERED_EVENTS = 2048

#: Bound on distinct ``repro_rule_seconds_total`` series exposed on
#: ``/metrics`` (hottest rules win) — label cardinality insurance.
MAX_RULE_SERIES = 64


def span_event(span) -> dict:
    """One ended :class:`~repro.obs.telemetry.Span` as its schema-3
    event dictionary (the same shape the tracer exports)."""
    return {
        "trace_id": span.context.trace_id,
        "span_id": span.context.span_id,
        "parent": span.context.parent_id,
        "name": span.name,
        "start_ms": round(span.start_ms, 3),
        "duration_ms": round(span.duration_ms or 0.0, 3),
        "attrs": dict(span.attributes),
    }


def _keep_span(event: dict) -> bool:
    """Whether a span belongs in the trace store.

    Monitoring traffic (``/stats`` polls, ``/metrics`` scrapes,
    ``/ingest`` posts, health checks) would otherwise flood the bounded
    ring with single-span traces and evict the query traces the store
    exists for.  Only ``http.request`` roots are filtered — every
    non-HTTP span (forward, parse, spec.compute, answer, serve.batch)
    is kept unconditionally.
    """
    if event.get("name") != "http.request":
        return True
    path = (event.get("attrs") or {}).get("path") or ""
    return path == "/" or path.startswith("/query")


def _escape_label(value: str) -> str:
    """Prometheus label-value escaping (backslash, quote, newline)."""
    return (str(value).replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


class _DeriveSink:
    """A trace sink that stamps ``derive`` events with one trace id and
    hands them to its owning collector/client.  Built per computation
    via :meth:`Collector.derive_sink`; any other event type is ignored
    (the provenance store only ever emits ``derive``)."""

    __slots__ = ("_owner", "_trace_id")

    def __init__(self, owner, trace_id: str):
        self._owner = owner
        self._trace_id = trace_id

    def write_event(self, event: dict) -> None:
        if event.get("event") != "derive":
            return
        record = {key: value for key, value in event.items()
                  if key not in ("event", "ts", "body")}
        record["trace_id"] = self._trace_id
        self._owner.add_derive(record)


class Collector:
    """The aggregation terminal: traces and the windowed profile.

    Thread-safe throughout — handler threads ingest concurrently with
    the local telemetry export hook and with ``/trace`` / ``/profile``
    reads.
    """

    def __init__(self, max_traces: Union[int, None] = None,
                 derive_sample: int = DERIVE_SAMPLE,
                 window_s: float = 60.0, bucket_s: float = 5.0):
        kwargs = {} if max_traces is None else {"max_traces": max_traces}
        self.traces = TraceStore(**kwargs)
        self.rules = RuleWindowAggregator(window_s=window_s,
                                          bucket_s=bucket_s)
        self.derive_sample = max(1, int(derive_sample))
        self._origin = {"pid": os.getpid(), "worker": None}
        self._lock = threading.Lock()
        self._spans = 0
        self._derives = 0
        self._ingests = 0
        self._ingest_errors = 0

    # -- local recording (Telemetry hook + service instrumentation) ------

    def record_span(self, span) -> None:
        """:class:`~repro.obs.telemetry.Telemetry` export hook."""
        event = span_event(span)
        if not _keep_span(event):
            return
        with self._lock:
            self._spans += 1
        self.traces.add_span(event, self._origin)

    def add_derive(self, record: dict) -> None:
        with self._lock:
            self._derives += 1
        self.traces.add_derive(record, self._origin)

    def derive_sink(self, trace_id: Union[str, None]):
        """A per-computation trace sink for sampled ``derive`` events
        (``None`` when there is no trace to attach them to)."""
        if not trace_id:
            return None
        return _DeriveSink(self, trace_id)

    def observe_rules(self, records) -> None:
        """File per-rule counter deltas into the windowed profile."""
        self.rules.observe(records)

    # -- cross-process ingestion -----------------------------------------

    def ingest(self, payload: dict) -> dict:
        """File one worker envelope; returns an acceptance summary.

        Raises ``ValueError`` on a malformed envelope (the HTTP layer
        turns that into a 400).
        """
        if not isinstance(payload, dict):
            raise ValueError("ingest payload must be a JSON object")
        blocks = {}
        for name in ("spans", "derives", "rules"):
            block = payload.get(name) or []
            if not isinstance(block, list):
                raise ValueError(f"ingest field {name!r} must be a list")
            blocks[name] = [item for item in block
                            if isinstance(item, dict)]
        origin = {"pid": payload.get("pid"),
                  "worker": payload.get("worker")}
        kept = 0
        for event in blocks["spans"]:
            if _keep_span(event):
                self.traces.add_span(event, origin)
                kept += 1
        for event in blocks["derives"]:
            self.traces.add_derive(event, origin)
        self.rules.observe(blocks["rules"])
        with self._lock:
            self._ingests += 1
            self._spans += kept
            self._derives += len(blocks["derives"])
        return {"ok": True, "spans": kept,
                "derives": len(blocks["derives"]),
                "rules": len(blocks["rules"])}

    def ingest_error(self) -> None:
        with self._lock:
            self._ingest_errors += 1

    # -- serving views ----------------------------------------------------

    def trace_payload(self, trace_id: str) -> Union[dict, None]:
        return self.traces.tree(trace_id)

    def traces_payload(self) -> dict:
        return {"traces": self.traces.summaries()}

    def profile_payload(self) -> dict:
        """``GET /profile``: the sliding-window rule profile and its
        lifetime totals."""
        window = self.rules.window()
        return {
            "window_s": window["window_s"],
            "rules": window["rules"],
            "totals": self.rules.totals(),
        }

    def counters(self) -> dict:
        """The ``collector`` block of ``/stats``."""
        with self._lock:
            spans, derives = self._spans, self._derives
            ingests, errors = self._ingests, self._ingest_errors
        return {
            "traces": len(self.traces),
            "evicted": self.traces.evicted,
            "spans": spans,
            "derives": derives,
            "ingests": ingests,
            "ingest_errors": errors,
        }

    def prometheus_lines(self) -> list:
        """The collector's ``/metrics`` series."""
        lines = [
            "# HELP repro_rule_seconds_total Evaluation seconds "
            "attributed to one rule (lifetime of this collector).",
            "# TYPE repro_rule_seconds_total counter",
        ]
        for row in self.rules.totals()[:MAX_RULE_SERIES]:
            label = _escape_label(row["label"])
            lines.append(f'repro_rule_seconds_total{{rule="{label}"}} '
                         f'{row["seconds"]:.6f}')
        counters = self.counters()
        lines += [
            "# HELP repro_collector_ingests_total Worker envelopes "
            "accepted on /ingest.",
            "# TYPE repro_collector_ingests_total counter",
            f"repro_collector_ingests_total {counters['ingests']}",
            "# HELP repro_collector_spans_total Spans filed into the "
            "trace store.",
            "# TYPE repro_collector_spans_total counter",
            f"repro_collector_spans_total {counters['spans']}",
            "# HELP repro_collector_traces Traces currently retained.",
            "# TYPE repro_collector_traces gauge",
            f"repro_collector_traces {counters['traces']}",
        ]
        return lines


class CollectorClient:
    """The worker-side half: record locally, ship periodically.

    Implements the same recording interface as :class:`Collector`
    (``record_span`` / ``derive_sink`` / ``observe_rules``), so
    :class:`~repro.obs.telemetry.Telemetry` and
    :class:`~repro.serve.service.QueryService` cannot tell which side
    of the process boundary they are instrumenting.

    All buffers are bounded (oldest dropped first) and all shipping is
    fire-and-forget from one daemon thread; a failed POST drops that
    envelope and moves on.  ``close()`` performs a final synchronous
    flush so an orderly shutdown loses nothing.
    """

    def __init__(self, url: str, worker_id: Union[int, None] = None,
                 interval: float = FLUSH_INTERVAL,
                 max_events: int = MAX_BUFFERED_EVENTS,
                 derive_sample: int = DERIVE_SAMPLE,
                 timeout: float = 5.0):
        self.url = url
        self.worker_id = worker_id
        self.interval = max(0.05, float(interval))
        self.derive_sample = max(1, int(derive_sample))
        self.timeout = timeout
        self._spans: deque = deque(maxlen=max(1, int(max_events)))
        self._derives: deque = deque(maxlen=max(1, int(max_events)))
        self._rules: list = []
        self._lock = threading.Lock()
        self.shipped = 0
        self.ship_errors = 0
        self.dropped = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="repro-collector-client", daemon=True)
        self._thread.start()

    # -- recording interface ---------------------------------------------

    def _buffer(self, queue: deque, item: dict) -> None:
        with self._lock:
            if len(queue) == queue.maxlen:
                self.dropped += 1
            queue.append(item)

    def record_span(self, span) -> None:
        event = span_event(span)
        if _keep_span(event):
            self._buffer(self._spans, event)

    def add_derive(self, record: dict) -> None:
        self._buffer(self._derives, record)

    def derive_sink(self, trace_id: Union[str, None]):
        if not trace_id:
            return None
        return _DeriveSink(self, trace_id)

    def observe_rules(self, records) -> None:
        with self._lock:
            self._rules.extend(records)

    # -- shipping ---------------------------------------------------------

    def _drain(self) -> Union[dict, None]:
        with self._lock:
            if not (self._spans or self._derives or self._rules):
                return None
            payload = {
                "worker": self.worker_id,
                "pid": os.getpid(),
                "spans": list(self._spans),
                "derives": list(self._derives),
                "rules": self._rules,
            }
            self._spans.clear()
            self._derives.clear()
            self._rules = []
        return payload

    def flush(self) -> bool:
        """Ship one envelope now; True when there was nothing to ship
        or the POST succeeded.  A failed POST drops the envelope — the
        documented loss semantics, never a retry queue."""
        payload = self._drain()
        if payload is None:
            return True
        body = json.dumps(payload).encode("utf-8")
        request = urllib.request.Request(
            self.url, data=body,
            headers={"Content-Type": "application/json"})
        try:
            with urllib.request.urlopen(request,
                                        timeout=self.timeout) as reply:
                reply.read()
        except (OSError, urllib.error.URLError, ValueError):
            self.ship_errors += 1
            return False
        self.shipped += 1
        return True

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.flush()

    def close(self) -> None:
        """Stop the flush thread and ship the final window."""
        self._stop.set()
        self._thread.join(timeout=self.timeout + 1.0)
        self.flush()
