"""End-to-end collection over HTTP: the /trace and /profile endpoints,
the per-rule metrics, the /ingest path, and the acceptance
criterion of the tier — one ``GET /trace/<id>`` tree whose spans come
from both the front-end process and a worker process.

Also covers ``repro trace ls|show`` against a live server and the
``repro top`` workers table rendering.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.cli import main
from repro.serve.workers import WorkerConfig

from conftest import wait_until

EVEN = "even(T+2) :- even(T).\neven(0).\n"

#: A caller-chosen trace id (the serving path honors X-Repro-Trace-Id).
TID = "feedc0de" * 4


def _names(span):
    yield span["name"]
    for child in span["children"]:
        yield from _names(child)


class TestSingleProcessCollection:
    def test_trace_endpoint_returns_assembled_tree(self,
                                                   serve_endpoint):
        point = serve_endpoint(collect=True)
        response, data = point.post_query(
            {"program": EVEN, "query": "even(4)"},
            headers={"X-Repro-Trace-Id": TID})
        assert data["responses"][0]["ok"]

        def root_arrived():
            # The root span is exported after the response bytes go
            # out; until it lands its children surface as orphans.
            status, tree = point.get_json(f"/trace/{TID}")
            return status == 200 and len(tree["roots"]) == 1

        wait_until(root_arrived)
        status, tree = point.get_json(f"/trace/{TID}")
        assert tree["trace_id"] == TID
        (root,) = tree["roots"]
        assert root["name"] == "http.request"
        names = set(_names(root))
        assert {"parse", "spec.compute", "answer"} <= names

    def test_trace_carries_sampled_derives(self, serve_endpoint):
        from conftest import PATH_TEXT
        point = serve_endpoint(collect=True)
        # The path spec derives a few hundred facts, so with a 1-in-16
        # sample at least a few derive events must reach the store.
        point.post_query({"program": PATH_TEXT,
                          "query": "path(3, a, d)"},
                         headers={"X-Repro-Trace-Id": TID})
        _, tree = point.get_json(f"/trace/{TID}")
        assert tree["derives"], "sampled derive events expected"
        derive = tree["derives"][0]
        assert derive["pred"] == "path"
        assert "rule" in derive

    def test_trace_listing_and_unknown_and_bad_ids(self,
                                                   serve_endpoint):
        point = serve_endpoint(collect=True)
        point.post_query({"program": EVEN, "query": "even(0)"},
                         headers={"X-Repro-Trace-Id": TID})
        status, listing = point.get_json("/trace")
        assert status == 200
        assert TID in [row["trace_id"] for row in listing["traces"]]
        status, body = point.get_json(f"/trace/{'ab' * 16}")
        assert status == 404 and "error" in body
        status, body = point.get_json("/trace/not-hex!")
        assert status == 400

    def test_profile_reports_rules_and_totals(self, serve_endpoint):
        point = serve_endpoint(collect=True)
        point.post_query({"program": EVEN, "query": "even(20)"})
        status, profile = point.get_json("/profile")
        assert status == 200
        assert set(profile) == {"window_s", "rules", "totals"}
        assert profile["rules"], "windowed rule profile expected"
        hot = profile["rules"][0]
        assert "even" in hot["label"] and hot["firings"] > 0
        assert ({row["label"] for row in profile["totals"]}
                == {row["label"] for row in profile["rules"]})

    def test_metrics_exposes_rule_series(self, serve_endpoint):
        point = serve_endpoint(collect=True)
        point.post_query({"program": EVEN, "query": "even(20)"})
        response, raw = point.request("GET", "/metrics")
        text = raw.decode()
        rule_lines = [line for line in text.splitlines()
                      if line.startswith("repro_rule_seconds_total{rule=")]
        assert rule_lines
        assert all(float(line.split()[-1]) > 0.0 for line in rule_lines)
        assert "repro_collector_spans_total " in text

    def test_stats_carries_collector_block(self, serve_endpoint):
        point = serve_endpoint(collect=True)
        point.post_query({"program": EVEN, "query": "even(0)"},
                         headers={"X-Repro-Trace-Id": TID})
        _, stats = point.get_json("/stats")
        collector = stats["collector"]
        assert collector["traces"] == 1
        assert collector["spans"] >= 4

    def test_monitoring_traffic_stays_out_of_the_store(
            self, serve_endpoint):
        point = serve_endpoint(collect=True)
        for _ in range(3):
            point.get_json("/stats")
            point.request("GET", "/metrics")
        _, listing = point.get_json("/trace")
        assert listing["traces"] == []

    def test_without_collector_trace_endpoints_404(self,
                                                   serve_endpoint):
        point = serve_endpoint()  # collect=False
        for path in ("/trace", f"/trace/{TID}", "/profile"):
            response, _ = point.request("GET", path)
            assert response.status == 404


class TestTierCollection:
    def test_cross_process_trace_tree(self, tier):
        """The PR's acceptance criterion: a traced request through a
        2-worker tier yields one tree containing the front-end root
        span, its forward span, and the worker-side children — with
        the worker spans attributed to a different pid."""
        import os
        point = tier(workers=2, collect=True,
                     config=WorkerConfig(collect_interval=0.1))
        response, data = point.post_query(
            {"program": EVEN, "query": "even(6)"},
            headers={"X-Repro-Trace-Id": TID})
        assert data["responses"][0]["ok"]

        def worker_spans_arrived():
            status, tree = point.get_json(f"/trace/{TID}")
            if status != 200:
                return False
            flat = [s for root in tree["roots"]
                    for s in _flatten(root)]
            return any(s.get("worker") is not None for s in flat)

        def _flatten(span):
            yield span
            for child in span["children"]:
                yield from _flatten(child)

        wait_until(worker_spans_arrived, timeout=15.0,
                   message="worker spans never reached the front-end")
        _, tree = point.get_json(f"/trace/{TID}")
        flat = [s for root in tree["roots"] for s in _flatten(root)]
        names = {s["name"] for s in flat}
        assert "http.request" in names and "forward" in names
        worker_spans = [s for s in flat
                        if s.get("worker") is not None]
        worker_names = {s["name"] for s in worker_spans}
        assert {"parse", "spec.compute"} <= worker_names
        # Worker spans ran in a different process than the front-end.
        assert any(s["pid"] != os.getpid() for s in worker_spans
                   if s.get("pid"))
        # The stitch: the worker's root hangs under the front-end's
        # forward span, so there is exactly one tree.
        front_root = [r for r in tree["roots"]
                      if r["name"] == "http.request"]
        assert len(front_root) == 1
        assert any(s.get("worker") is not None
                   for s in _flatten(front_root[0]))

    def test_tier_profile_aggregates_worker_rules(self, tier):
        point = tier(workers=2, collect=True,
                     config=WorkerConfig(collect_interval=0.1))
        point.post_query({"program": EVEN, "query": "even(20)"})

        def rules_arrived():
            status, profile = point.get_json("/profile")
            return status == 200 and bool(profile["rules"])

        wait_until(rules_arrived, timeout=15.0,
                   message="worker rule deltas never arrived")
        _, profile = point.get_json("/profile")
        assert any("even" in row["label"]
                   for row in profile["rules"])
        assert any("even" in row["label"] and row["firings"] > 0
                   for row in profile["totals"])
        _, stats = point.get_json("/stats")
        assert stats["collector"]["ingests"] >= 1

    def test_ingest_rejects_malformed_envelope(self, tier):
        point = tier(workers=1, collect=True)
        response, raw = point.request(
            "POST", "/ingest", json.dumps({"spans": "nope"}),
            headers={"Content-Type": "application/json"})
        assert response.status == 400
        response, raw = point.request(
            "POST", "/ingest", "{not json",
            headers={"Content-Type": "application/json"})
        assert response.status == 400
        _, stats = point.get_json("/stats")
        assert stats["collector"]["ingest_errors"] == 2

    def test_ingest_404_without_collector(self, tier):
        point = tier(workers=1)  # collect=False
        response, _ = point.request(
            "POST", "/ingest", json.dumps({"spans": []}),
            headers={"Content-Type": "application/json"})
        assert response.status == 404


class TestTraceCli:
    def test_trace_ls_and_show(self, serve_endpoint):
        point = serve_endpoint(collect=True)
        point.post_query({"program": EVEN, "query": "even(4)"},
                         headers={"X-Repro-Trace-Id": TID})
        out = io.StringIO()
        assert main(["trace", "ls", "--url", point.url], out) == 0
        assert TID[:32] in out.getvalue()
        out = io.StringIO()
        assert main(["trace", "show", TID, "--url", point.url],
                    out) == 0
        text = out.getvalue()
        assert f"trace {TID}" in text
        assert "spec.compute" in text
        out = io.StringIO()
        assert main(["trace", "show", TID, "--url", point.url,
                     "--format", "json"], out) == 0
        payload = json.loads(out.getvalue())
        assert payload["trace_id"] == TID

    def test_trace_show_unknown_id_exits_1(self, serve_endpoint):
        point = serve_endpoint(collect=True)
        out = io.StringIO()
        assert main(["trace", "show", "ab" * 16,
                     "--url", point.url], out) == 1

    def test_trace_against_dead_server_exits_2(self):
        out = io.StringIO()
        assert main(["trace", "ls", "--url",
                     "http://127.0.0.1:9"], out) == 2


class TestCollectorOverheadGate:
    """benchmarks/check_stats_json.py re-checks E17's recorded
    collection-overhead ratio against its recorded limit."""

    @staticmethod
    def _checker():
        import importlib.util
        import pathlib
        path = (pathlib.Path(__file__).parent.parent / "benchmarks"
                / "check_stats_json.py")
        spec = importlib.util.spec_from_file_location(
            "check_stats_json", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_ratio_within_limit_passes(self):
        checker = self._checker()
        assert checker.check_collector_overhead("e17", {
            "collector_overhead_ratio": 1.08,
            "collector_overhead_limit": 1.25}) == []
        assert checker.check_collector_overhead("e17", {}) == []

    def test_ratio_over_limit_fails(self):
        checker = self._checker()
        problems = checker.check_collector_overhead("e17", {
            "collector_overhead_ratio": 1.4,
            "collector_overhead_limit": 1.25})
        assert any("exceeds the recorded limit" in p
                   for p in problems)

    def test_ratio_without_limit_fails(self):
        checker = self._checker()
        problems = checker.check_collector_overhead("e17", {
            "collector_overhead_ratio": 1.1})
        assert any("without collector_overhead_limit" in p
                   for p in problems)

    @pytest.mark.parametrize("bad", [0, -1.0, True, "1.1", None])
    def test_malformed_ratio_fails(self, bad):
        checker = self._checker()
        problems = checker.check_collector_overhead("e17", {
            "collector_overhead_ratio": bad,
            "collector_overhead_limit": 1.25})
        assert problems, bad


class TestTopWorkersTable:
    def test_render_includes_worker_rows(self):
        from repro.serve.top import render
        current = {
            "serve": {"requests": 10}, "cache": {}, "latency": {},
            "frontend": {"forwards": 4, "retries": 0, "unrouted": 0,
                         "workers": 2, "workers_up": 2},
            "collector": {"traces": 1, "spans": 5, "ingests": 2,
                          "ingest_errors": 0},
            "workers": [
                {"id": 0, "up": True, "pid": 111, "routed": 6,
                 "restarts": 0,
                 "stats": {"serve": {"requests": 6},
                           "cache": {"lookups": 6, "mem_hits": 3,
                                     "disk_hits": 0}}},
                {"id": 1, "up": False, "pid": None, "routed": 4,
                 "restarts": 2, "stats": {}},
            ],
        }
        previous = {
            "serve": {"requests": 0},
            "workers": [
                {"id": 0, "stats": {"serve": {"requests": 2}}},
            ],
        }
        frame = render("http://x", current, previous, dt=2.0)
        assert "worker" in frame and "share" in frame
        assert "60.0%" in frame      # worker 0 routed share
        assert "2.0" in frame        # worker 0 QPS (6-2)/2
        assert "50.0%" in frame      # worker 0 hit ratio
        assert "DOWN" in frame       # worker 1 state
        assert "workers up 2/2" in frame
        assert "ingests 2 (errors 0)" in frame

    def test_single_process_stats_render_without_workers(self):
        from repro.serve.top import render
        frame = render("http://x", {"serve": {}, "cache": {},
                                    "latency": {}})
        assert "worker" not in frame
