"""``repro top`` — a live terminal dashboard over a running server.

Polls ``GET /stats`` on an interval and renders the numbers an
operator watches during load: request rate (QPS, from consecutive
counter deltas), cache hit ratio, latency percentiles from the
fixed-bucket histogram, and the degraded/error counts.  Against a
multi-process tier the frame grows a per-worker balance table (routed
share of the ring, per-worker QPS, hit ratio, restarts) plus the
front-end routing and collector summary lines.  Stdlib only
(``urllib``); a dead or restarted server shows up as a status line,
not a traceback.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import TextIO, Union

#: ANSI clear-screen + home, emitted between refreshes on a TTY.
CLEAR = "\x1b[2J\x1b[H"


class TopError(Exception):
    """The server could not be reached at all (first poll failed)."""


def fetch_stats(url: str, timeout: float = 5.0) -> dict:
    """One ``GET /stats`` round trip; raises :class:`TopError` on any
    transport or decoding failure."""
    try:
        with urllib.request.urlopen(url + "/stats",
                                    timeout=timeout) as response:
            return json.loads(response.read().decode("utf-8"))
    except (urllib.error.URLError, OSError, ValueError) as exc:
        raise TopError(f"cannot poll {url}/stats: {exc}") from exc


def _ratio(part: int, whole: int) -> str:
    return "-" if whole == 0 else f"{100.0 * part / whole:.1f}%"


def _workers_table(current: dict,
                   previous: Union[dict, None],
                   dt: Union[float, None]) -> list:
    """Per-worker rows of a tier's ``/stats`` (empty list when the
    server is single-process): routed share, per-worker QPS from the
    worker's own request-counter delta, and cache hit ratio —
    the balance view of the consistent-hash ring."""
    rows = current.get("workers")
    if not rows:
        return []
    before = {}
    if previous is not None:
        for row in previous.get("workers", []):
            before[row.get("id")] = row
    total_routed = sum(row.get("routed", 0) for row in rows) or 1
    lines = [
        "",
        f"{'worker':>6} {'state':<5} {'pid':>7} {'routed':>8} "
        f"{'share':>6} {'qps':>6} {'hit':>6} {'restarts':>8}",
    ]
    for row in rows:
        stats = row.get("stats") or {}
        serve = stats.get("serve", {})
        cache = stats.get("cache", {})
        qps = "-"
        prior = before.get(row.get("id"))
        if (prior is not None and dt and dt > 0
                and "stats" in prior):
            delta = (serve.get("requests", 0)
                     - prior["stats"].get("serve", {})
                            .get("requests", 0))
            qps = f"{delta / dt:.1f}"
        hits = (cache.get("mem_hits", 0)
                + cache.get("disk_hits", 0))
        hit = _ratio(hits, cache.get("lookups", 0))
        share = _ratio(row.get("routed", 0), total_routed)
        lines.append(
            f"{row.get('id', '?'):>6} "
            f"{'up' if row.get('up') else 'DOWN':<5} "
            f"{row.get('pid') or '-':>7} "
            f"{row.get('routed', 0):>8} {share:>6} {qps:>6} "
            f"{hit:>6} {row.get('restarts', 0):>8}")
    frontend = current.get("frontend", {})
    lines.append(
        f"frontend   forwards {frontend.get('forwards', 0)} | "
        f"retries {frontend.get('retries', 0)} | "
        f"unrouted {frontend.get('unrouted', 0)} | "
        f"workers up {frontend.get('workers_up', 0)}"
        f"/{frontend.get('workers', 0)}")
    collector = current.get("collector")
    if collector:
        lines.append(
            f"collector  traces {collector.get('traces', 0)} | "
            f"spans {collector.get('spans', 0)} | "
            f"ingests {collector.get('ingests', 0)} "
            f"(errors {collector.get('ingest_errors', 0)})")
    return lines


def render(url: str, current: dict,
           previous: Union[dict, None] = None,
           dt: Union[float, None] = None) -> str:
    """One dashboard frame from a ``/stats`` snapshot (and, when
    available, the previous snapshot for rate computation)."""
    serve = current.get("serve", {})
    cache = current.get("cache", {})
    latency = current.get("latency", {})
    requests = serve.get("requests", 0)
    if previous is not None and dt and dt > 0:
        delta = requests - previous.get("serve", {}).get("requests", 0)
        qps = f"{delta / dt:.1f}"
    else:
        qps = "-"
    hits = cache.get("mem_hits", 0) + cache.get("disk_hits", 0)
    lookups = cache.get("lookups", 0)
    lines = [
        f"repro top — {url}",
        "",
        f"requests   {requests} total | {qps} QPS | "
        f"batches {serve.get('batches', 0)} "
        f"(max {serve.get('max_batch', 0)}) | "
        f"asks {serve.get('asks', 0)} "
        f"open {serve.get('open_queries', 0)}",
        f"cache      hit {_ratio(hits, lookups)} | "
        f"mem {cache.get('mem_hits', 0)} "
        f"disk {cache.get('disk_hits', 0)} "
        f"miss {cache.get('misses', 0)} | "
        f"entries {cache.get('memory_entries', 0)} | "
        f"corrupt {cache.get('corrupt', 0)}",
        f"latency    p50 {latency.get('p50', 0.0)}ms "
        f"p95 {latency.get('p95', 0.0)}ms "
        f"p99 {latency.get('p99', 0.0)}ms | "
        f"count {latency.get('count', 0)} | "
        f"sum {latency.get('sum_ms', 0.0)}ms",
        f"health     degraded {serve.get('degraded', 0)} | "
        f"errors {serve.get('errors', 0)} | "
        f"spec computes {serve.get('spec_computes', 0)} | "
        f"singleflight waits {serve.get('singleflight_waits', 0)}",
    ]
    lines.extend(_workers_table(current, previous, dt))
    return "\n".join(lines)


def run_top(url: str, out: TextIO, interval: float = 2.0,
            iterations: Union[int, None] = None,
            clock=time.monotonic, sleep=time.sleep) -> int:
    """The polling loop behind ``repro top``.

    ``iterations=None`` runs until Ctrl-C.  The first poll failing is
    an error (exit 2 from the CLI); later failures render a status
    line and keep polling, so a server restart does not kill the
    dashboard.
    """
    previous: Union[dict, None] = None
    previous_at: Union[float, None] = None
    count = 0
    clear = getattr(out, "isatty", lambda: False)()
    try:
        while iterations is None or count < iterations:
            if count > 0:
                sleep(interval)
            try:
                current = fetch_stats(url)
            except TopError as exc:
                if previous is None:
                    raise
                print(f"[{exc} — retrying]", file=out, flush=True)
                count += 1
                continue
            now = clock()
            dt = (None if previous_at is None
                  else now - previous_at)
            if clear:
                out.write(CLEAR)
            print(render(url, current, previous, dt), file=out,
                  flush=True)
            previous, previous_at = current, now
            count += 1
    except KeyboardInterrupt:
        pass
    return 0
