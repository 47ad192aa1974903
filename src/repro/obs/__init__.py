"""Observability for the evaluation engines.

Every engine — naive/semi-naive Datalog, the temporal operator behind
algorithm BT, the incremental model, top-down tabling, magic sets, and
the interval engine — accepts an optional :class:`EvalStats`
accumulator.  It defaults to ``None`` and costs (near) nothing when
absent, so the hot paths stay unchanged; when supplied, it makes *how*
an answer was computed a first-class artifact: rounds, per-round delta
sizes, join probes, index behaviour, the horizon used, the detected
period, and wall time per phase (:func:`phase_timer`).

An ``EvalStats`` may carry a :class:`Tracer`; it then writes each
round, phase and period it records as a trace event, so a run is
recorded once.  The trace is a JSON-lines event stream with a pluggable
sink (:class:`JsonLinesSink` for files, :class:`ListSink` for tests);
the event schema is documented in ``docs/INTERNALS.md``.

Per-rule attribution lives one level down: a :class:`MetricsRegistry`
(also accepted by every engine, as ``metrics=None``) credits firings,
new facts, duplicates, join probes and wall time to individual rules,
and :mod:`repro.obs.profile` / :mod:`repro.obs.traceview` render the
``repro profile`` and ``repro traceview`` reports on top.

Request-level telemetry lives in :mod:`repro.obs.telemetry`: a
:class:`Telemetry` mints :class:`Span` trees (trace_id / span_id /
parent) across the serving path and exports them as schema-3 ``span``
events through the same Tracer sinks, and :class:`LatencyHistogram`
backs the ``/metrics`` endpoint and the ``/stats`` percentile block.

Derivation provenance lives in :mod:`repro.obs.provenance`: a
:class:`ProvenanceStore` (accepted by every bottom-up engine, as
``provenance=None``) records one support edge per derived fact — an
interned proof DAG — and powers ``repro why`` / ``repro whynot``, the
``explain: true`` flag on ``POST /query``, and the sampled schema-4
``derive`` trace events.
"""

from .collector import RuleWindowAggregator, TraceStore, render_trace_tree
from .metrics import Histogram, MetricsRegistry, RuleMetrics
from .provenance import (FailedFiring, ProvenanceStore, WhyNotReport,
                         render_proof, why_not)
from .stats import EvalStats, phase_timer
from .telemetry import (DEFAULT_LATENCY_BUCKETS_MS, LatencyHistogram,
                        Span, SpanContext, Telemetry, new_span_id,
                        new_trace_id, valid_span_id, valid_trace_id)
from .trace import TRACE_SCHEMA, JsonLinesSink, ListSink, Tracer

__all__ = [
    "EvalStats",
    "Tracer", "JsonLinesSink", "ListSink", "TRACE_SCHEMA",
    "MetricsRegistry", "RuleMetrics", "Histogram",
    "phase_timer",
    "Telemetry", "Span", "SpanContext", "LatencyHistogram",
    "new_trace_id", "new_span_id", "valid_trace_id", "valid_span_id",
    "DEFAULT_LATENCY_BUCKETS_MS",
    "ProvenanceStore", "FailedFiring", "WhyNotReport",
    "render_proof", "why_not",
    "TraceStore", "RuleWindowAggregator", "render_trace_tree",
]
