"""Unit tests for the cross-process observability primitives:
:mod:`repro.obs.collector` (trace store, windowed rule profile) and the
process-local half of :mod:`repro.serve.collect` (span filtering,
envelope validation, Prometheus exposition)."""

from __future__ import annotations

import re

import pytest

from repro.obs.collector import (RuleWindowAggregator, TraceStore,
                                 render_trace_tree)
from repro.serve.collect import (Collector, CollectorClient, _keep_span,
                                 span_event)

#: Every Prometheus sample line must look like this — the shape the CI
#: metrics check enforces (NaN and friends do not parse).
SAMPLE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? [0-9.eE+-]+$")

TID = "ab" * 16


def _span(span_id="aa" * 8, parent=None, name="work", start=0.0,
          trace_id=TID, **attrs):
    return {"trace_id": trace_id, "span_id": span_id, "parent": parent,
            "name": name, "start_ms": start, "duration_ms": 1.5,
            "attrs": attrs}


# -- TraceStore ------------------------------------------------------------


def test_trace_store_assembles_parent_child_tree():
    store = TraceStore()
    store.add_span(_span("11" * 8, name="root", start=0.0))
    store.add_span(_span("22" * 8, parent="11" * 8, name="late",
                         start=5.0), origin={"pid": 42, "worker": 1})
    store.add_span(_span("33" * 8, parent="11" * 8, name="early",
                         start=1.0))
    tree = store.tree(TID)
    assert tree["spans"] == 3 and tree["dropped"] == 0
    (root,) = tree["roots"]
    assert root["name"] == "root"
    assert [c["name"] for c in root["children"]] == ["early", "late"]
    assert root["children"][1]["worker"] == 1
    assert root["children"][1]["pid"] == 42


def test_trace_store_orphan_spans_become_roots():
    store = TraceStore()
    store.add_span(_span("11" * 8, parent="99" * 8, name="orphan"))
    tree = store.tree(TID)
    assert [r["name"] for r in tree["roots"]] == ["orphan"]


def test_trace_store_evicts_oldest_trace():
    store = TraceStore(max_traces=2)
    for i in range(3):
        store.add_span(_span(trace_id=f"{i:032x}"))
    assert len(store) == 2 and store.evicted == 1
    assert f"{0:032x}" not in store
    assert store.tree(f"{0:032x}") is None


def test_trace_store_caps_spans_per_trace():
    store = TraceStore(max_spans=2)
    for i in range(5):
        store.add_span(_span(span_id=f"{i:016x}"))
    tree = store.tree(TID)
    assert tree["spans"] == 2 and tree["dropped"] == 3


def test_trace_store_recency_survives_new_spans():
    store = TraceStore(max_traces=2)
    store.add_span(_span(trace_id="aa" * 16))
    store.add_span(_span(trace_id="bb" * 16))
    store.add_span(_span(trace_id="aa" * 16))  # refresh "aa"
    store.add_span(_span(trace_id="cc" * 16))  # evicts "bb"
    assert "aa" * 16 in store and "bb" * 16 not in store


def test_trace_store_summaries_most_recent_first():
    store = TraceStore()
    store.add_span(_span(trace_id="aa" * 16, name="first"))
    store.add_span(_span(trace_id="bb" * 16, name="second"),
                   origin={"pid": 9, "worker": 0})
    store.add_derive({"trace_id": "bb" * 16, "pred": "p", "time": 3,
                      "rule": "p(T+1) :- p(T)."})
    rows = store.summaries()
    assert [r["trace_id"] for r in rows] == ["bb" * 16, "aa" * 16]
    assert rows[0]["derives"] == 1 and rows[0]["workers"] == [0]
    assert rows[0]["root"] == "second"


def test_render_trace_tree_mentions_spans_and_derives():
    store = TraceStore()
    store.add_span(_span("11" * 8, name="http.request", path="/query"))
    store.add_derive({"trace_id": TID, "pred": "p", "time": 7,
                      "rule": "p(T+1) :- p(T)."})
    text = render_trace_tree(store.tree(TID))
    assert f"trace {TID}" in text
    assert "http.request" in text
    assert "p@7" in text


# -- RuleWindowAggregator --------------------------------------------------


def _records(seconds=0.5, label="p(T+1) :- p(T).", line=1):
    return [{"label": label, "line": line, "firings": 2,
             "new_facts": 3, "duplicates": 1, "probes": 10,
             "seconds": seconds}]


def test_window_aggregator_sums_within_window():
    now = [100.0]
    agg = RuleWindowAggregator(window_s=60.0, bucket_s=5.0,
                               clock=lambda: now[0])
    agg.observe(_records(0.5))
    now[0] += 7.0  # next bucket, same window
    agg.observe(_records(0.25))
    window = agg.window()
    assert window["window_s"] == 60.0
    (row,) = window["rules"]
    assert row["firings"] == 4 and row["seconds"] == pytest.approx(0.75)


def test_window_aggregator_expires_but_totals_persist():
    now = [100.0]
    agg = RuleWindowAggregator(window_s=10.0, bucket_s=5.0,
                               clock=lambda: now[0])
    agg.observe(_records(0.5))
    now[0] += 30.0  # far past the window horizon
    assert agg.window()["rules"] == []
    (total,) = agg.totals()
    assert total["seconds"] == pytest.approx(0.5)


def test_window_aggregator_merges_across_rule_keys():
    agg = RuleWindowAggregator()
    agg.observe(_records(0.1, label="a.", line=1))
    agg.observe(_records(0.9, label="b.", line=2))
    rules = agg.window()["rules"]
    assert [r["label"] for r in rules] == ["b.", "a."]  # hottest first


def test_window_aggregator_rejects_degenerate_window():
    with pytest.raises(ValueError):
        RuleWindowAggregator(window_s=1.0, bucket_s=5.0)


# -- span filtering and envelope validation --------------------------------


def test_keep_span_filters_monitoring_traffic():
    keep = lambda path: _keep_span(
        {"name": "http.request", "attrs": {"path": path}})
    assert keep("/query") and keep("/query?x=1") and keep("/")
    assert not keep("/stats") and not keep("/metrics")
    assert not keep("/ingest") and not keep("/trace/abc")
    # Non-HTTP spans always pass.
    assert _keep_span({"name": "spec.compute", "attrs": {}})


def test_collector_ingest_counts_and_filters():
    collector = Collector()
    summary = collector.ingest({
        "worker": 1, "pid": 999,
        "spans": [_span(),
                  {"trace_id": TID, "span_id": "dd" * 8,
                   "name": "http.request",
                   "attrs": {"path": "/stats"}},
                  "not-a-dict"],
        "derives": [{"trace_id": TID, "pred": "p", "time": 1}],
        "rules": _records(),
    })
    assert summary == {"ok": True, "spans": 1, "derives": 1,
                       "rules": 1}
    counters = collector.counters()
    assert counters["ingests"] == 1 and counters["traces"] == 1
    assert collector.rules.totals()[0]["firings"] == 2
    tree = collector.trace_payload(TID)
    assert tree["roots"][0]["worker"] == 1


@pytest.mark.parametrize("payload", [
    [], "x", {"spans": "nope"}, {"rules": 5},
])
def test_collector_ingest_rejects_malformed(payload):
    collector = Collector()
    with pytest.raises(ValueError):
        collector.ingest(payload)
    collector.ingest_error()
    assert collector.counters()["ingest_errors"] == 1


def test_collector_prometheus_lines_parse():
    collector = Collector()
    collector.observe_rules(_records(
        label='tricky "label"\nwith\\escapes', line=3))
    collector.ingest({"spans": [_span()]})
    for line in collector.prometheus_lines():
        if line.startswith("#"):
            continue
        assert SAMPLE.match(line), f"unparseable sample: {line!r}"
    text = "\n".join(collector.prometheus_lines())
    assert "repro_rule_seconds_total{" in text
    assert "repro_collector_ingests_total 1" in text


def test_collector_derive_sink_requires_trace_id():
    collector = Collector()
    assert collector.derive_sink(None) is None
    assert collector.derive_sink("") is None
    sink = collector.derive_sink(TID)
    sink.write_event({"event": "phase", "name": "load"})  # ignored
    sink.write_event({"event": "derive", "ts": 1.0, "pred": "p",
                      "time": 2, "rule": "p.", "body": ["q"]})
    (derive,) = collector.trace_payload(TID)["derives"]
    assert derive["pred"] == "p" and derive["time"] == 2
    assert derive["rule"] == "p."
    assert "body" not in derive and "ts" not in derive


# -- CollectorClient (worker-side buffering + loss semantics) --------------


class _FakeSpan:
    class context:
        trace_id = TID
        span_id = "ee" * 8
        parent_id = None
    name = "spec.compute"
    start_ms = 1.0
    duration_ms = 2.0
    attributes = {}


def test_client_drops_envelope_on_unreachable_frontend():
    client = CollectorClient("http://127.0.0.1:9/ingest",
                             worker_id=0, interval=3600.0, timeout=0.2)
    try:
        client.record_span(_FakeSpan())
        assert client.flush() is False
        assert client.ship_errors == 1
        # The envelope is gone — no retry queue.
        assert client.flush() is True
        assert client.ship_errors == 1
    finally:
        client.close()


def test_client_bounded_buffer_drops_oldest():
    client = CollectorClient("http://127.0.0.1:9/ingest",
                             interval=3600.0, max_events=2, timeout=0.2)
    try:
        for _ in range(5):
            client.record_span(_FakeSpan())
        assert client.dropped == 3
        assert len(client._spans) == 2
    finally:
        client.close()


def test_span_event_shape():
    event = span_event(_FakeSpan())
    assert event["trace_id"] == TID
    assert event["span_id"] == "ee" * 8
    assert event["parent"] is None
    assert event["duration_ms"] == 2.0


# -- traceview footer ------------------------------------------------------


def test_traceview_counts_span_and_derive_events():
    from repro.obs.traceview import render_summary, summarize
    events = [
        {"event": "span", "trace_id": TID, "span_id": "11" * 8,
         "name": "http.request"},
        {"event": "span", "trace_id": TID, "span_id": "22" * 8,
         "name": "parse"},
        {"event": "derive", "pred": "p", "time": 1},
    ]
    summary = summarize(events)
    assert summary.spans == 2 and summary.derives == 1
    assert "telemetry: 2 spans, 1 derive events" \
        in render_summary(summary)


def test_traceview_footer_absent_without_telemetry():
    from repro.obs.traceview import render_summary, summarize
    summary = summarize([{"event": "round", "round": 1, "delta": 2}])
    assert "telemetry:" not in render_summary(summary)
