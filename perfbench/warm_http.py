"""Workload ``warm-http``: single-process ``repro serve`` over 24
prewarmed programs, one request per POST.

24 programs fit both the 32-entry parse memo and the 64-entry spec LRU,
so the hit ratio is 1.0 and HTTP, JSON, the memo, the LRU and query
evaluation on the spec are the whole cost.  Phase 1 (a third of the run) is a
closed loop on :data:`CONNECTIONS` connections (capacity); phase 2 (the
rest) an open loop at :data:`RATE` requests per second, each timed from
when it was due.
"""

from __future__ import annotations

import json
import random
import time

import corpus
from common import (HERE, WINDOWS, BenchError, Outcome, WorkDir, median,
                    percentile, windowed_percentile, windowed_rate)
from layers import SpanTree, hit_ratios
from loadgen import closed_loop, get_json, open_loop, post
from procs import Server, cpu_seconds, peak_rss_mib

#: Server set-ups per run (setup_s is their median; the last one serves).
SETUPS = 3
#: Closed-loop connections of phase 1.
CONNECTIONS = 2
#: Fixed open-loop rate of phase 2 (requests per second).  Phase-1
#: capacity on a shared 2-core host ranged from about 180 to 615 req/s
#: as the host's speed drifted, so the rate stays under half of it even
#: when the host runs slow; near capacity the queue grows for the whole
#: phase and the latencies measure the host, not the server.
RATE = 75
#: Phase 2 is invalid when the generator itself sends later than this
#: at its 99th percentile (a generator that falls behind its schedule;
#: a busy host alone delayed it by up to about 12 ms).
LAG_LIMIT_MS = 50.0
#: Tail percentile of phase 2.  A window holds hundreds of requests,
#: but on a shared 2-core host p99 of one window moved 2x between
#: windows of one run, and p95 still split ten-seed runs into a calm
#: and a stalled group (IQR 38% of the median); p90 is printed beside
#: p99.
TAIL = 90
#: Query mix: ground asks, quantified closed asks, open answers.
MIX = (("asks", 0.70), ("quantified", 0.15), ("opens", 0.15))
#: Distinct request bodies the phases cycle through.
POOL = 4096


def working_set(unique, tiny: bool = False) -> list:
    """24 programs: nine cheaper than a cold counters program (chains,
    rings), six counters, nine dearer (travel, sync, path), so the
    prewarm median falls inside one family's costs rather than between
    two."""
    mid = [periods for periods in corpus.coprime_sets(3, 360, 440)
           if min(periods) >= 5]
    small = corpus.coprime_sets(3, 150, 200, largest=60)
    families = [
        (5, lambda r: corpus.copy_chain(r, r.randrange(16, 32), 4)),
        (4, lambda r: corpus.token_ring(r, r.randrange(8, 14),
                                        r.randrange(0, 6))),
        (6, lambda r: corpus.counters(r, corpus.ordered(r, mid))),
        (3, lambda r: corpus.travel(r, r.randrange(80, 101), 3)),
        (3, lambda r: corpus.sync(r, corpus.ordered(r, small), 3)),
        (3, lambda r: corpus.bounded_path(r, 12, 25, 5)),
    ]
    return [unique.draw(make) for count, make in families
            for _ in range(1 if tiny else count)]


def request_pool(rng: random.Random, programs: list) -> list:
    """(body, query) pairs drawn with the :data:`MIX` proportions."""
    kinds = [kind for kind, _ in MIX]
    weights = [weight for _, weight in MIX]
    pool = []
    for _ in range(POOL):
        program = rng.choice(programs)
        query = rng.choice(getattr(program, rng.choices(kinds, weights)[0]))
        body = json.dumps({"requests": [query.request(program.text)]})
        pool.append((body.encode("utf-8"), query))
    return pool


class Traffic:
    """Request ``i`` of a phase: a pooled body and a unique trace id."""

    def __init__(self, pool: list, phase: int, count: int):
        self.pool = pool
        self.bodies = [pool[i % len(pool)][0] for i in range(count)]
        self.trace_ids = [f"{phase:02x}{i:030x}" for i in range(count)]

    def query(self, index: int):
        return self.pool[index % len(self.pool)][1]


def check(outcome: Outcome, traffic: Traffic, samples: list) -> None:
    for sample in samples:
        outcome.attempted += 1
        query = traffic.query(sample.index)
        try:
            item = json.loads(sample.data)["responses"][0]
        except (ValueError, KeyError, IndexError, TypeError):
            item = None
        if sample.status != 200 or not query.check(item):
            outcome.mismatch(f"status {sample.status}: {query.text}")


def start(workdir: WorkDir, programs: list, outcome: Outcome,
          spans_file=None) -> tuple:
    """Spawn a server, wait for its banner and prewarm every program.

    Returns (server, seconds, cold POST latencies in ms)."""
    directory = workdir.fresh("serve")
    serve = ["serve", "--port", "0", "--cache", str(directory / "specs.db")]
    if spans_file is None:
        argv = ["-m", "repro"] + serve
    else:
        argv = [str(HERE / "launch.py"), str(spans_file)] + serve
    began = time.perf_counter()
    server = Server(argv, directory)
    try:
        port = server.start()
        colds = []
        for index, program in enumerate(programs):
            query = program.asks[0]
            body = json.dumps({"requests": [query.request(program.text)]})
            sent = time.perf_counter()
            status, data = post(port, body.encode("utf-8"),
                                f"01{index:030x}")
            colds.append((time.perf_counter() - sent) * 1e3)
            outcome.attempted += 1
            try:
                item = json.loads(data)["responses"][0]
            except (ValueError, KeyError, IndexError, TypeError):
                item = None
            if status != 200 or not query.check(item):
                outcome.mismatch(f"prewarm status {status}: {query.text}")
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - began, colds


def open_phase(port: int, pool: list, seconds: float) -> tuple:
    traffic = Traffic(pool, 0x22, int(RATE * seconds) + 1)
    samples = open_loop(port, traffic.bodies, traffic.trace_ids, RATE,
                        seconds)
    lag = percentile([s.lag_ms for s in samples], 99)
    if lag > LAG_LIMIT_MS:
        raise BenchError(f"open loop invalid: generator lag p99 {lag:.2f} "
                         f"ms exceeds {LAG_LIMIT_MS} ms")
    return traffic, samples, lag


def run(seed: int, seconds: float, trace: bool, tiny: bool = False) -> Outcome:
    outcome = Outcome()
    rng = random.Random(seed)
    programs = working_set(corpus.Unique(rng), tiny)
    pool = request_pool(rng, programs)
    with WorkDir() as workdir:
        if trace:
            _traced(outcome, workdir, programs, pool, seconds)
            return outcome
        setups, colds, server = [], [], None
        try:
            for _ in range(SETUPS):
                if server is not None:
                    server.stop()
                server, took, cold = start(workdir, programs, outcome)
                setups.append(took)
                colds += cold
            port = server.port
            closed = Traffic(pool, 0x11, 4000 * int(seconds + 1))
            samples, _ = closed_loop(port, closed.bodies, closed.trace_ids,
                                     CONNECTIONS, seconds / 3)
            opened, timed, lag = open_phase(port, pool, 2 * seconds / 3)
            rss = peak_rss_mib(server.proc.pid)
        finally:
            if server is not None:
                server.stop()
    check(outcome, closed, samples)
    check(outcome, opened, timed)
    latencies = [s.latency_ms for s in timed]
    qps, tail = windowed_rate(samples), windowed_percentile(latencies, TAIL)
    outcome.metric("setup_s", median(setups), "s")
    outcome.metric("throughput_per_s", qps, "1/s")
    outcome.metric("latency_ms.p50", median(latencies), "ms")
    outcome.metric("latency_ms.tail", tail, "ms")
    outcome.metric("cold_ms.p50", median(colds), "ms")
    outcome.metric("rss_peak_mb", rss, "MiB")
    outcome.notes += [
        f"phase 1: {len(samples)} requests on {CONNECTIONS} connections",
        f"phase 2: {len(timed)} requests at {RATE}/s, generator lag p99 "
        f"{lag:.3f} ms",
        f"warm_qps = {qps:.3f} req/s (median of {WINDOWS} windows)",
        f"warm_ms.p50 = {median(latencies):.3f} ms",
        f"warm_ms.p{TAIL} = {tail:.3f} ms (median of {WINDOWS} windows)",
        f"warm_ms.p99 = {percentile(latencies, 99):.3f} ms",
        f"cold POSTs (prewarm): {len(colds)}, p50 {median(colds):.3f} ms",
    ]
    return outcome


def _traced(outcome: Outcome, workdir: WorkDir, programs: list, pool: list,
            seconds: float) -> None:
    """A plain server and one started through the span launcher; phase 1
    alternates between them (tracing overhead), phase 2 runs traced."""
    spans_file = workdir.path / "spans.json"
    plain = traced = None
    try:
        plain, _, _ = start(workdir, programs, outcome)
        traced, _, _ = start(workdir, programs, outcome, spans_file)
        pid = traced.proc.pid
        stats0, cpu0 = get_json(traced.port, "/stats"), cpu_seconds(pid)
        counts = {"plain": [0, 0.0], "traced": [0, 0.0]}
        measured = []
        for turn in range(4):
            side = ("plain", "traced")[turn % 2]
            server = plain if side == "plain" else traced
            closed = Traffic(pool, 0x11 + turn, 4000 * int(seconds + 1))
            samples, elapsed = closed_loop(server.port, closed.bodies,
                                           closed.trace_ids, CONNECTIONS,
                                           seconds / 8)
            counts[side][0] += len(samples)
            counts[side][1] += elapsed
            check(outcome, closed, samples)
            if side == "traced":
                measured.append((closed, samples))
        opened, timed, lag = open_phase(traced.port, pool, seconds / 2)
        check(outcome, opened, timed)
        measured.append((opened, timed))
        cpu1, stats1 = cpu_seconds(pid), get_json(traced.port, "/stats")
    finally:
        for server in (plain, traced):
            if server is not None:
                server.stop()
    try:
        with open(spans_file, encoding="utf-8") as stream:
            recorded = json.load(stream)
    except (OSError, ValueError) as exc:
        raise BenchError(f"the traced server left no spans: {exc}")
    ids = {t.trace_ids[s.index]: s for t, samples in measured
           for s in samples}
    tree = SpanTree(recorded["spans"], "http.request",
                    keep=lambda span: span["trace"] in ids)
    values = tree.metrics()
    requests = len(ids)
    batch = {s["trace"]: s["end"] - s["start"] for s in tree.spans
             if s["name"] == "service.batch"}
    values["http.transport_ms"] = median(
        [(ids[t].end - ids[t].start - batch[t]) * 1e3 for t in batch])
    values["lang.parse_per_req"] = tree.count("lang.parse") / requests
    values["cache.hit_ratio"], values["cache.mem_hit_ratio"] = hit_ratios(
        stats0["cache"], stats1["cache"])
    values["spec.size"] = sum(s.get("size", 0) for s in recorded["spans"]
                              if s["name"] == "spec.build")
    values["proc.cpu_ms_per_req.server"] = (cpu1 - cpu0) * 1e3 / requests
    values["collector.spans_per_req"] = (
        stats1["collector"]["spans"] - stats0["collector"]["spans"]
    ) / requests
    values["loadgen.lag_ms.p99"] = lag
    plain_n, plain_s = counts["plain"]
    traced_n, traced_s = counts["traced"]
    values["trace.overhead_ratio"] = (plain_n / plain_s) / (traced_n
                                                            / traced_s)
    absent = sorted(set(recorded["absent"]))
    values["trace.absent_layers"] = len(absent)
    outcome.layers.update(values)
    outcome.notes += [f"absent layer: {name}" for name in absent]
    outcome.notes.append(tree.coverage_note("POSTs"))
