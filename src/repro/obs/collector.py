"""Cross-process trace assembly and windowed rule profiling.

PR 9 scaled serving across processes and thereby *scattered* the
observability PR 5 built: each worker exports its spans and ``derive``
events into its own sink, so no single place can show one request
end-to-end anymore.  This module holds the process-neutral data
structures that reassemble the picture — Dapper's model, applied to the
tier: spans carry ``(trace_id, span_id, parent_id)``, so a store keyed
by trace id can rebuild the whole request tree no matter which process
each span ran in.

Two structures, both thread-safe, both bounded:

* :class:`TraceStore` — a bounded ring of recent traces (oldest trace
  evicted on overflow, per-trace span cap with a ``dropped`` counter).
  ``tree(trace_id)`` links spans through their parent ids into one
  nested dictionary; spans whose parent never arrived (sampling, a
  killed worker, eviction) surface as extra roots rather than
  vanishing.
* :class:`RuleWindowAggregator` — the continuous profile: per-rule
  counters bucketed into a sliding window (default 60 s of 5 s
  buckets) plus process-lifetime totals for the
  ``repro_rule_seconds_total`` counter.  Rules are keyed by
  ``(label, line)`` — the per-process ``r1``/``r2`` registry ids are
  *not* stable across workers, but a rule's text and source line are.

Loss semantics (documented here because every consumer inherits them):
both structures are *best-effort sliding state*, not ledgers.  A
SIGKILLed worker loses at most the window its client had not flushed;
an evicted trace is gone; the windowed profile forgets anything older
than its horizon.  The durable record remains the per-process trace
files — this layer trades completeness for a live, assembled view.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque
from typing import Iterable, Union

#: Default bound on distinct traces retained (oldest evicted first).
MAX_TRACES = 256

#: Default bound on spans retained per trace; excess spans are counted
#: in the trace's ``dropped`` field instead of stored.
MAX_SPANS_PER_TRACE = 512

#: Default bound on sampled ``derive`` events retained per trace.
MAX_DERIVES_PER_TRACE = 256


class TraceStore:
    """A bounded ring of recent traces, keyed by trace id.

    ``add_span`` ingests one exported span *event* (the plain-dict
    schema-3 shape :class:`~repro.obs.telemetry.Telemetry` emits) plus
    an ``origin`` dict naming the process it came from (``pid``,
    ``worker``).  ``add_derive`` attaches sampled derivation events to
    the same trace.  Insertion refreshes the trace's recency, so a
    long-running request's trace survives as long as spans keep
    arriving.
    """

    def __init__(self, max_traces: int = MAX_TRACES,
                 max_spans: int = MAX_SPANS_PER_TRACE,
                 max_derives: int = MAX_DERIVES_PER_TRACE,
                 clock=time.time):
        self.max_traces = max(1, int(max_traces))
        self.max_spans = max(1, int(max_spans))
        self.max_derives = max(0, int(max_derives))
        self._clock = clock
        self._traces: "OrderedDict[str, dict]" = OrderedDict()
        self._lock = threading.Lock()
        self.evicted = 0  # traces dropped to honor max_traces

    # -- ingestion -------------------------------------------------------

    def _entry(self, trace_id: str) -> dict:
        entry = self._traces.get(trace_id)
        if entry is None:
            entry = {"spans": [], "derives": [], "dropped": 0,
                     "updated": self._clock()}
            self._traces[trace_id] = entry
            while len(self._traces) > self.max_traces:
                self._traces.popitem(last=False)
                self.evicted += 1
        else:
            entry["updated"] = self._clock()
            self._traces.move_to_end(trace_id)
        return entry

    def add_span(self, event: dict, origin: Union[dict, None] = None
                 ) -> None:
        """Ingest one exported span event (must carry ``trace_id``)."""
        trace_id = event.get("trace_id")
        if not trace_id:
            return
        span = {
            "span_id": event.get("span_id"),
            "parent": event.get("parent"),
            "name": event.get("name"),
            "start_ms": event.get("start_ms"),
            "duration_ms": event.get("duration_ms"),
            "attrs": event.get("attrs") or {},
        }
        if origin:
            span["pid"] = origin.get("pid")
            span["worker"] = origin.get("worker")
        with self._lock:
            entry = self._entry(str(trace_id))
            if len(entry["spans"]) >= self.max_spans:
                entry["dropped"] += 1
            else:
                entry["spans"].append(span)

    def add_derive(self, event: dict, origin: Union[dict, None] = None
                   ) -> None:
        """Attach one sampled ``derive`` event to its trace."""
        trace_id = event.get("trace_id")
        if not trace_id:
            return
        derive = {key: event[key]
                  for key in ("pred", "time", "args", "rule", "line",
                              "round", "neg")
                  if key in event}
        if origin:
            derive["worker"] = origin.get("worker")
        with self._lock:
            entry = self._entry(str(trace_id))
            if len(entry["derives"]) >= self.max_derives:
                entry["dropped"] += 1
            else:
                entry["derives"].append(derive)

    # -- assembly --------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)

    def __contains__(self, trace_id: str) -> bool:
        with self._lock:
            return trace_id in self._traces

    def tree(self, trace_id: str) -> Union[dict, None]:
        """The assembled cross-process span tree of one trace.

        Spans link through ``parent`` span ids; children sort by their
        process-local ``start_ms`` (clocks are per-process, so ordering
        across processes is approximate — good enough for reading, not
        for time arithmetic).  Spans whose parent is missing become
        additional roots.  Returns ``None`` for an unknown trace.
        """
        with self._lock:
            entry = self._traces.get(trace_id)
            if entry is None:
                return None
            spans = [dict(span) for span in entry["spans"]]
            derives = [dict(d) for d in entry["derives"]]
            dropped = entry["dropped"]
        nodes = {}
        for span in spans:
            span["children"] = []
            if span.get("span_id"):
                nodes[span["span_id"]] = span
        roots = []
        for span in spans:
            parent = nodes.get(span.get("parent"))
            if parent is not None and parent is not span:
                parent["children"].append(span)
            else:
                roots.append(span)

        def sort_children(span: dict) -> None:
            span["children"].sort(key=lambda s: (s.get("start_ms") or 0.0))
            for child in span["children"]:
                sort_children(child)

        for root in roots:
            sort_children(root)
        roots.sort(key=lambda s: (s.get("start_ms") or 0.0))
        return {
            "trace_id": trace_id,
            "spans": len(spans),
            "dropped": dropped,
            "roots": roots,
            "derives": derives,
        }

    def summaries(self) -> list[dict]:
        """One row per retained trace, most recent first — the
        ``repro trace ls`` listing."""
        with self._lock:
            items = list(self._traces.items())
        rows = []
        for trace_id, entry in reversed(items):
            spans = entry["spans"]
            root = None
            duration = None
            workers = set()
            for span in spans:
                if span.get("worker") is not None:
                    workers.add(span["worker"])
                if span.get("parent") is None and root is None:
                    root = span
            if root is None and spans:
                root = spans[0]
            if root is not None:
                duration = root.get("duration_ms")
            rows.append({
                "trace_id": trace_id,
                "spans": len(spans),
                "derives": len(entry["derives"]),
                "dropped": entry["dropped"],
                "root": None if root is None else root.get("name"),
                "duration_ms": duration,
                "workers": sorted(workers, key=str),
                "updated": entry["updated"],
            })
        return rows


def render_trace_tree(tree: dict) -> str:
    """Human-readable rendering of :meth:`TraceStore.tree` output —
    the body of ``repro trace show``."""
    lines = [f"trace {tree['trace_id']}  "
             f"({tree['spans']} spans"
             + (f", {tree['dropped']} dropped" if tree["dropped"] else "")
             + ")"]

    def origin_of(span: dict) -> str:
        worker = span.get("worker")
        pid = span.get("pid")
        if worker is not None:
            return f" [{worker}]"
        if pid is not None:
            return f" [pid {pid}]"
        return ""

    def walk(span: dict, depth: int) -> None:
        duration = span.get("duration_ms")
        shown = "?" if duration is None else f"{duration:.3f}ms"
        attrs = span.get("attrs") or {}
        extras = " ".join(f"{k}={attrs[k]}" for k in sorted(attrs)
                          if k in ("method", "path", "status", "worker",
                                   "requests", "key", "engine", "error"))
        lines.append("  " * depth + f"- {span.get('name')} {shown}"
                     + origin_of(span)
                     + (f"  {extras}" if extras else ""))
        for child in span["children"]:
            walk(child, depth + 1)

    for root in tree["roots"]:
        walk(root, 1)
    if tree["derives"]:
        lines.append(f"  {len(tree['derives'])} sampled derive event(s):")
        for derive in tree["derives"][:8]:
            pred = derive.get("pred", "?")
            at = derive.get("time")
            rule = derive.get("rule", "?")
            lines.append(f"    + {pred}@{at}  via {rule}")
        if len(tree["derives"]) > 8:
            lines.append(f"    … {len(tree['derives']) - 8} more")
    return "\n".join(lines)


class RuleWindowAggregator:
    """Sliding-window per-rule hotness, merged across processes.

    Workers periodically ship their :class:`~repro.obs.metrics.
    MetricsRegistry` *deltas* (counter increments since the last ship);
    this aggregator files each delta into the current time bucket and
    into process-lifetime totals.  ``window()`` sums the live buckets —
    the ``GET /profile`` payload; ``totals()`` backs
    ``repro_rule_seconds_total``.

    Keyed by ``(label, line)``: registry ids (``r1``…) restart in every
    process, but a rule's text plus source line identify it across the
    whole tier.
    """

    _FIELDS = ("firings", "new_facts", "duplicates", "probes", "seconds")

    def __init__(self, window_s: float = 60.0, bucket_s: float = 5.0,
                 clock=time.time):
        if bucket_s <= 0 or window_s < bucket_s:
            raise ValueError("window must cover at least one bucket")
        self.window_s = float(window_s)
        self.bucket_s = float(bucket_s)
        self._clock = clock
        # deque of (bucket_index, {key: {field: value}})
        self._buckets: "deque[tuple[int, dict]]" = deque()
        self._totals: dict = {}
        self._lock = threading.Lock()

    def _current_bucket(self) -> dict:
        index = int(self._clock() // self.bucket_s)
        if not self._buckets or self._buckets[-1][0] != index:
            self._buckets.append((index, {}))
        horizon = index - int(self.window_s // self.bucket_s)
        while self._buckets and self._buckets[0][0] <= horizon:
            self._buckets.popleft()
        return self._buckets[-1][1]

    def observe(self, records: Iterable[dict]) -> None:
        """File one batch of per-rule counter deltas (``to_dict`` rows
        from a :class:`~repro.obs.metrics.MetricsRegistry`)."""
        with self._lock:
            bucket = self._current_bucket()
            for record in records:
                key = (record.get("label", "?"), record.get("line"))
                for store in (bucket, self._totals):
                    row = store.get(key)
                    if row is None:
                        row = store[key] = dict.fromkeys(self._FIELDS, 0)
                        row["seconds"] = 0.0
                    for field in self._FIELDS:
                        row[field] += record.get(field) or 0

    @staticmethod
    def _rows(store: dict) -> list[dict]:
        rows = []
        for (label, line), values in store.items():
            row = {"label": label, "line": line}
            row.update(values)
            row["seconds"] = round(row["seconds"], 9)
            rows.append(row)
        rows.sort(key=lambda r: r["seconds"], reverse=True)
        return rows

    def window(self) -> dict:
        """The live window's per-rule rows, hottest first."""
        with self._lock:
            self._current_bucket()  # expire stale buckets
            merged: dict = {}
            for _, bucket in self._buckets:
                for key, values in bucket.items():
                    row = merged.get(key)
                    if row is None:
                        merged[key] = dict(values)
                    else:
                        for field in self._FIELDS:
                            row[field] += values[field]
            return {"window_s": self.window_s,
                    "rules": self._rows(merged)}

    def totals(self) -> list[dict]:
        """Process-lifetime per-rule totals, hottest first."""
        with self._lock:
            return self._rows(self._totals)
