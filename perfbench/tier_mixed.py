"""Workload ``tier-mixed``: ``repro serve --workers 2`` over one shared
SQLite cache, two closed-loop connections posting 16-request batches.

The 256-program working set (about 128 per worker) is past both the
32-entry parse memo and the 64-entry spec LRU, so warm requests
re-parse, re-hash and reload specs from SQLite.  Every
:data:`COLD_EVERY`-th batch carries one never-seen program: a cold
compute, a SQLite put and a cross-process flight lease beside the reads.
The workers run no benchmark code; the layer numbers come from client
timings, each item's ``duration_ms``, ``/stats``, ``/trace/<id>`` and
``/proc``.
"""

from __future__ import annotations

import json
import random
import time
from collections import defaultdict

import corpus
from common import (WINDOWS, Outcome, WorkDir, median, windowed_percentile,
                    windowed_rate)
from layers import hit_ratios
from loadgen import closed_loop, get_json
from procs import Server, cpu_seconds, peak_rss_mib
from warm_http import MIX

#: Tier set-ups per run (setup_s is their median; the last one serves).
SETUPS = 3
WORKERS = 2
CONNECTIONS = 2
BATCH = 16
COLD_EVERY = 8
#: Programs in the warm working set.
WORKING_SET = 256
#: Tail percentile of warm POSTs (a run has several hundred).
TAIL = 90
#: Batches generated per second of run: about three times what a
#: 2-core host answers, so the loop runs out of time, not of batches.
BATCHES_PER_S = 100
#: Recent warm POSTs whose assembled trace trees are read back.
TRACE_SAMPLE = 48


#: Period sets of the small counter and sync programs (one per program,
#: so there must be hundreds).
SMALL_PERIODS = corpus.coprime_sets(2, 100, 240, largest=120)

#: The small-program families, taken in turn so that every working set
#: and every run's stream of never-seen programs has the same mix.
FAMILIES = (
    lambda r: corpus.travel(r, r.randrange(24, 33), 2, holidays=2),
    lambda r: corpus.bounded_path(r, 6, 10),
    lambda r: corpus.counters(r, r.choice(SMALL_PERIODS)),
    lambda r: corpus.sync(r, r.choice(SMALL_PERIODS), r.randrange(1, 4)),
    lambda r: corpus.token_ring(r, r.randrange(4, 11), r.randrange(0, 41)),
    lambda r: corpus.copy_chain(r, r.randrange(8, 49), r.randrange(1, 5)),
)


def small_programs(unique, count: int) -> list:
    """``count`` never-seen small programs (a cold compute of a few
    milliseconds each), the families in turn."""
    return [unique.draw(FAMILIES[i % len(FAMILIES)]) for i in range(count)]


class Batches:
    """The seeded batch sequence: bodies, their queries, cold flags."""

    def __init__(self, rng: random.Random, programs: list, fresh: list,
                 count: int):
        kinds = [kind for kind, _ in MIX]
        weights = [weight for _, weight in MIX]
        self.bodies, self.queries, self.cold = [], [], []
        fresh = iter(fresh)
        for index in range(count):
            items = []
            for _ in range(BATCH):
                program = rng.choice(programs)
                kind = rng.choices(kinds, weights)[0]
                items.append((program, rng.choice(getattr(program, kind))))
            cold = index % COLD_EVERY == COLD_EVERY - 1
            if cold:
                program = next(fresh)
                items[rng.randrange(BATCH)] = (program, program.asks[0])
            self.bodies.append(json.dumps({"requests": [
                query.request(program.text) for program, query in items
            ]}).encode("utf-8"))
            self.queries.append([query for _, query in items])
            self.cold.append(cold)
        self.trace_ids = [f"33{i:030x}" for i in range(count)]


def prewarm_bodies(programs: list) -> tuple[list, list]:
    bodies, queries = [], []
    for start in range(0, len(programs), BATCH):
        group = programs[start:start + BATCH]
        bodies.append(json.dumps({"requests": [
            p.asks[0].request(p.text) for p in group]}).encode("utf-8"))
        queries.append([p.asks[0] for p in group])
    return bodies, queries


def check(outcome: Outcome, queries: list, samples: list) -> list:
    """Check every item; returns each sample's decoded items."""
    decoded = []
    for sample in samples:
        expected = queries[sample.index]
        try:
            items = json.loads(sample.data)["responses"]
        except (ValueError, KeyError, TypeError):
            items = []
        decoded.append(items)
        for position, query in enumerate(expected):
            outcome.attempted += 1
            item = items[position] if position < len(items) else None
            if sample.status != 200 or not query.check(item):
                outcome.mismatch(f"status {sample.status}: {query.text}")
    return decoded


def start(workdir: WorkDir, prewarm: tuple, outcome: Outcome) -> tuple:
    """Spawn the tier, wait for its banner, prewarm the working set."""
    directory = workdir.fresh("tier")
    began = time.perf_counter()
    server = Server(["-m", "repro", "serve", "--workers", str(WORKERS),
                     "--port", "0", "--cache", str(directory / "specs.db")],
                    directory)
    try:
        port = server.start()
        bodies, queries = prewarm
        samples, _ = closed_loop(port, bodies, [None] * len(bodies),
                                 CONNECTIONS, float("inf"))
        check(outcome, queries, samples)
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - began


def _pids(stats: dict) -> list:
    return [row["pid"] for row in stats["workers"]]


def run(seed: int, seconds: float, trace: bool, tiny: bool = False) -> Outcome:
    outcome = Outcome()
    rng = random.Random(seed)
    unique = corpus.Unique(rng)
    size = 32 if tiny else WORKING_SET
    programs = small_programs(unique, size)
    count = int(BATCHES_PER_S * (seconds + 1))
    fresh = small_programs(unique, count // COLD_EVERY + 1)
    batches = Batches(rng, programs, fresh, count)
    prewarm = prewarm_bodies(programs)
    with WorkDir() as workdir:
        setups, server = [], None
        try:
            for _ in range(1 if trace else SETUPS):
                if server is not None:
                    server.stop()
                server, took = start(workdir, prewarm, outcome)
                setups.append(took)
            port, front = server.port, server.proc.pid
            stats0 = get_json(port, "/stats")
            pids = _pids(stats0)
            cpu0 = [cpu_seconds(pid) for pid in [front] + pids]
            samples, elapsed = closed_loop(port, batches.bodies,
                                           batches.trace_ids, CONNECTIONS,
                                           seconds)
            cpu1 = [cpu_seconds(pid) for pid in [front] + pids]
            stats1 = get_json(port, "/stats")
            rss = sum(peak_rss_mib(pid) for pid in [front] + _pids(stats1))
            trees = []
            if trace:
                warm = [s for s in samples if not batches.cold[s.index]]
                for sample in warm[-TRACE_SAMPLE:]:
                    trace_id = batches.trace_ids[sample.index]
                    try:
                        trees.append(get_json(port, f"/trace/{trace_id}"))
                    except OSError:
                        pass
        finally:
            if server is not None:
                server.stop()
    items = check(outcome, batches.queries, samples)
    warm_ms = [s.latency_ms for s in samples if not batches.cold[s.index]]
    cold_ms = [s.latency_ms for s in samples if batches.cold[s.index]]
    answered = sum(len(x) for x in items)
    if trace:
        _layers(outcome, samples, items, batches, stats0, stats1,
                cpu1[0] - cpu0[0], sum(cpu1[1:]) - sum(cpu0[1:]), trees,
                elapsed)
        return outcome
    qps = windowed_rate(samples, lambda sample: BATCH)
    tail = windowed_percentile(warm_ms, TAIL)
    outcome.metric("setup_s", median(setups), "s")
    outcome.metric("throughput_per_s", qps, "1/s")
    outcome.metric("latency_ms.p50", median(warm_ms), "ms")
    outcome.metric("latency_ms.tail", tail, "ms")
    outcome.metric("cold_ms.p50", median(cold_ms), "ms")
    outcome.metric("rss_peak_mb", rss, "MiB")
    outcome.notes += [
        f"batches: {len(samples)} ({len(cold_ms)} carry a never-seen "
        f"program), {answered} requests on {CONNECTIONS} connections",
        f"tier_qps = {qps:.3f} req/s (median of {WINDOWS} windows)",
        f"tier_ms.p50 = {median(warm_ms):.3f} ms",
        f"tier_ms.p{TAIL} = {tail:.3f} ms (median of {WINDOWS} windows)",
        f"tier_cold_ms.p50 = {median(cold_ms):.3f} ms",
    ]
    return outcome


def worker_ms(answer: list) -> float:
    """Service time of the busier worker for one routed batch.

    A worker serves its sub-batch group by group: each program's parse
    and spec acquisition once (an item's ``duration_ms`` minus its
    ``elapsed_ms``), then every item's answer phase (``elapsed_ms``).
    """
    busy: dict = defaultdict(float)
    groups = set()
    for item in answer:
        worker = item.get("worker")
        elapsed = item.get("elapsed_ms", 0.0)
        busy[worker] += elapsed
        if (worker, item.get("key")) not in groups:
            groups.add((worker, item.get("key")))
            busy[worker] += item.get("duration_ms", 0.0) - elapsed
    return max(busy.values(), default=0.0)


def _layers(outcome: Outcome, samples: list, items: list, batches,
            stats0: dict, stats1: dict, front_cpu: float, worker_cpu: float,
            trees: list, elapsed: float) -> None:
    requests = sum(len(x) for x in items)
    values = {}
    transport, uncovered, total = [], 0.0, 0.0
    for sample, answer in zip(samples, items):
        post_ms = (sample.end - sample.start) * 1e3
        inner = worker_ms(answer)
        if not batches.cold[sample.index]:
            transport.append(post_ms - inner)
        uncovered += max(post_ms - inner, 0.0)
        total += post_ms
    values["http.transport_ms"] = median(transport)
    values["trace.unattributed_ratio"] = uncovered / total if total else 0.0
    values["cache.hit_ratio"], values["cache.mem_hit_ratio"] = hit_ratios(
        stats0["cache"], stats1["cache"])
    values["proc.cpu_ms_per_req.frontend"] = front_cpu * 1e3 / requests
    values["proc.cpu_ms_per_req.worker"] = worker_cpu * 1e3 / requests
    front0, front1 = stats0["frontend"], stats1["frontend"]
    routed = [front1["routed"].get(k, 0) - front0["routed"].get(k, 0)
              for k in front1["routed"]]
    values["router.balance"] = (min(routed) / max(routed)
                                if routed and max(routed) else 0.0)
    values["router.retried"] = (front1["retried_requests"]
                                - front0["retried_requests"])
    cold_sent = sum(1 for s in samples if batches.cold[s.index])
    computes = (stats1["serve"]["spec_computes"]
                - stats0["serve"]["spec_computes"])
    values["flights.compute_ratio"] = computes / cold_sent if cold_sent else 0
    values["collector.spans_per_req"] = (
        stats1["collector"]["spans"] - stats0["collector"]["spans"]
    ) / requests
    lookups: dict = {"memory": [], "disk": []}
    parses = []
    for tree in trees:
        stack = list(tree.get("roots", []))
        while stack:
            span = stack.pop()
            stack.extend(span.get("children", []))
            outcome_attr = (span.get("attrs") or {}).get("outcome")
            if span.get("name") == "cache.lookup" and outcome_attr in lookups:
                lookups[outcome_attr].append(span.get("duration_ms", 0.0))
            elif span.get("name") == "parse":
                parses.append(span.get("duration_ms", 0.0))
    values["cache.lookup_ms.memory"] = median(lookups["memory"])
    values["cache.lookup_ms.disk"] = median(lookups["disk"])
    values["lang.parse_ms"] = median(parses)
    # Half the loop ran before the other half; the tracing the tier
    # adds (client span records, /trace reads afterwards) is the same
    # in both, so this reads the run's own drift.
    middle = samples[0].start + elapsed / 2 if samples else 0.0
    first = sum(len(a) for s, a in zip(samples, items) if s.start < middle)
    second = requests - first
    values["trace.overhead_ratio"] = first / second if second else 0.0
    outcome.layers.update(values)
    outcome.notes.append(
        f"trace trees read: {len(trees)}; worker parse spans "
        f"{len(parses)}, lookups memory {len(lookups['memory'])} / disk "
        f"{len(lookups['disk'])}")
