"""Per-layer metrics from recorded spans.

A layer's self time is its span's duration minus the time its direct
child spans cover; each ``_ms`` metric is the median self time per
call.  Metrics are computed over the spans under the *measured* roots
only (set-up traffic such as prewarming is left out), so a layer the
workload does not reach reads 0 calls.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable

from common import median

#: Every per-layer metric, with its unit (the traced run reports all).
PER_LAYER = (
    ("lang.parse_ms", "ms"),
    ("lang.parse_per_req", "count/req"),
    ("cache.key_ms", "ms"),
    ("cache.lookup_ms.memory", "ms"),
    ("cache.lookup_ms.disk", "ms"),
    ("cache.put_ms", "ms"),
    ("cache.hit_ratio", "ratio"),
    ("cache.mem_hit_ratio", "ratio"),
    ("bt.passes", "count"),
    ("bt.final_window", "timepoints"),
    ("bt.deepening_overhead", "x"),
    ("window.eval_ms", "ms"),
    ("window.facts_per_s", "1/s"),
    ("window.share", "ratio"),
    ("period.detect_ms", "ms"),
    ("spec.build_ms", "ms"),
    ("spec.size", "count"),
    ("query.parse_ms", "ms"),
    ("query.eval_ms.ask", "ms"),
    ("query.eval_ms.answers", "ms"),
    ("service.self_ms", "ms"),
    ("http.transport_ms", "ms"),
    ("proc.cpu_ms_per_req.server", "ms"),
    ("proc.cpu_ms_per_req.frontend", "ms"),
    ("proc.cpu_ms_per_req.worker", "ms"),
    ("router.balance", "ratio"),
    ("router.retried", "count"),
    ("flights.compute_ratio", "ratio"),
    ("collector.spans_per_req", "count/req"),
    ("loadgen.lag_ms.p99", "ms"),
    ("trace.overhead_ratio", "x"),
    ("trace.unattributed_ratio", "ratio"),
    ("trace.absent_layers", "count"),
)

#: Span name -> the self-time metric it feeds.
_SELF_METRICS = {
    "lang.parse": "lang.parse_ms",
    "cache.key": "cache.key_ms",
    "cache.lookup.memory": "cache.lookup_ms.memory",
    "cache.lookup.disk": "cache.lookup_ms.disk",
    "cache.put": "cache.put_ms",
    "window.eval": "window.eval_ms",
    "period.detect": "period.detect_ms",
    "spec.build": "spec.build_ms",
    "query.parse": "query.parse_ms",
    "query.ask": "query.eval_ms.ask",
    "query.answers": "query.eval_ms.answers",
    "service.batch": "service.self_ms",
}


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def _kind(span: dict) -> str:
    if span["name"] == "cache.lookup":
        return f"cache.lookup.{span.get('outcome', 'miss')}"
    return span["name"]


class SpanTree:
    """Spans indexed by parent, restricted to the measured roots."""

    def __init__(self, spans: list, root: str,
                 keep: Callable[[dict], bool] = lambda span: True):
        self.children: dict = defaultdict(list)
        for span in spans:
            self.children[span["parent"]].append(span)
        self.roots = [s for s in self.children[None]
                      if s["name"] == root and keep(s)]
        self.spans: list = []
        stack = list(self.roots)
        while stack:
            span = stack.pop()
            self.spans.append(span)
            stack.extend(self.children[span["id"]])

    def self_seconds(self, span: dict) -> float:
        return _duration(span) - sum(_duration(c)
                                     for c in self.children[span["id"]])

    def descendants(self, span: dict, name: str) -> list:
        found, stack = [], list(self.children[span["id"]])
        while stack:
            child = stack.pop()
            if child["name"] == name:
                found.append(child)
            stack.extend(self.children[child["id"]])
        return sorted(found, key=lambda s: s["start"])

    def unattributed_ratio(self) -> float:
        """Share of root time that no direct child span covers."""
        total = sum(_duration(r) for r in self.roots)
        if total <= 0:
            return 0.0
        return sum(self.self_seconds(r) for r in self.roots) / total

    def coverage_note(self, what: str) -> str:
        """A line on how much of each root its children cover."""
        coverage = sorted(1.0 - self.self_seconds(r) / _duration(r)
                          for r in self.roots if _duration(r) > 0)
        if not coverage:
            return f"root coverage: no {what}"
        low = coverage[len(coverage) // 10]
        return (f"root coverage over {len(coverage)} {what}: aggregate "
                f"{1 - self.unattributed_ratio():.3f}, p10 {low:.3f}, "
                f"min {coverage[0]:.3f}")

    def metrics(self) -> dict:
        """The span-derived per-layer metrics (see :data:`PER_LAYER`)."""
        selfs: dict = defaultdict(list)
        for span in self.spans:
            selfs[_kind(span)].append(self.self_seconds(span))
        out = {metric: median(selfs[name]) * 1e3
               for name, metric in _SELF_METRICS.items()}
        passes, finals, overheads = [], [], []
        for compute in (s for s in self.spans if s["name"] == "spec.compute"):
            windows = self.descendants(compute, "window.eval")
            if not windows:
                continue
            passes.append(len(windows))
            finals.append(windows[-1].get("horizon") or 0)
            last = _duration(windows[-1])
            if last > 0:
                overheads.append(sum(_duration(w) for w in windows) / last)
        out["bt.passes"] = median(passes)
        out["bt.final_window"] = median(finals)
        out["bt.deepening_overhead"] = median(overheads)
        windows = [s for s in self.spans if s["name"] == "window.eval"]
        window_s = sum(_duration(w) for w in windows)
        out["window.facts_per_s"] = (
            sum(w.get("facts", 0) for w in windows) / window_s
            if window_s > 0 else 0.0)
        root_s = sum(_duration(r) for r in self.roots)
        out["window.share"] = window_s / root_s if root_s > 0 else 0.0
        out["trace.unattributed_ratio"] = self.unattributed_ratio()
        return out

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s["name"] == name)


def hit_ratios(before: dict, after: dict) -> tuple[float, float]:
    """(hit ratio, memory hit ratio) between two cache counter snapshots."""
    lookups = after["lookups"] - before["lookups"]
    if lookups <= 0:
        return 0.0, 0.0
    mem = after["mem_hits"] - before["mem_hits"]
    disk = after["disk_hits"] - before["disk_hits"]
    return (mem + disk) / lookups, mem / lookups


def complete(values: dict) -> dict:
    """Every per-layer metric, zero where the workload has no calls."""
    return {name: (float(values.get(name, 0.0)), unit)
            for name, unit in PER_LAYER}
