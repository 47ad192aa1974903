"""Workload ``cold-spec``: never-seen programs through an in-process
``QueryService`` over a fresh SQLite ``SpecCache``, one closed-loop caller.

Every batch misses the cache, so BT deepening, the window fixpoint,
period detection, spec build and the SQLite write do the work.  The
corpus is a stream of fixed-composition blocks (one program per slot of
:func:`slots`); the seed picks each program's details, so every seed
costs about the same, and runs stop at a block boundary.  About half
the slots reuse a rule set seen earlier in the run with a fresh
database, so a plan cache keyed by rule set both hits and misses.
"""

from __future__ import annotations

import random
import resource
import time

from common import Outcome, WorkDir, median, percentile
from layers import SpanTree, hit_ratios

#: Service + warm-up program set-ups per run (setup_s is their median).
SETUPS = 3
#: Tail percentile: a run has a few hundred batches, so p90 has dozens
#: of samples beyond it and p99 only a few.
TAIL = 90
#: A run ends after this many blocks even inside its time (a much
#: faster program finishes the corpus early instead of exhausting the
#: generators' supply of never-seen programs).
MAX_BLOCKS = 40


def slots(tiny: bool = False) -> list:
    """One block: (name, maker) per slot, cheapest to dearest.

    Each slot holds the features that set a program's cost (period
    start and length, database depth, size) inside a narrow band and
    draws everything else from the seed, so blocks cost about the same
    for every seed.  The median and the 90th percentile of a run fall in
    the middle of a cluster of three identical slots (ranks 7-9 and
    13-15 of 15) rather than in the gap between two slots of different
    cost.  The slots with fixed rules (rings, paths, the long chain,
    365-day travel) reuse an earlier rule set with a fresh database.
    """
    import corpus
    if tiny:
        return [
            ("chain", lambda r: corpus.copy_chain(r, r.randrange(4, 41),
                                                  r.randrange(1, 4))),
            ("ring", lambda r: corpus.token_ring(r, r.randrange(3, 9),
                                                 r.randrange(0, 20))),
            ("path", lambda r: corpus.bounded_path(r, 6, 10)),
        ]
    mid = corpus.coprime_sets(3, 360, 440, largest=60)
    big = corpus.coprime_sets(4, 1100, 1300, largest=60)
    sync_mid = corpus.coprime_sets(3, 200, 240, largest=60)

    def travel_mid(r):
        return corpus.travel(r, r.randrange(95, 111), 3)

    def travel_big(r):
        return corpus.travel(r, 365, 6)

    return [
        ("chain-fresh", lambda r: corpus.copy_chain(
            r, r.randrange(17, 32), r.randrange(4, 8))),
        ("ring-small", lambda r: corpus.token_ring(
            r, r.randrange(11, 17), r.randrange(0, 8))),
        ("path-small", lambda r: corpus.bounded_path(r, 10, 20, 5)),
        ("counters-mid", lambda r: corpus.counters(r, corpus.ordered(r, mid))),
        ("chain", lambda r: corpus.copy_chain(
            r, r.choice(range(50, 63, 2)), r.randrange(14, 20))),
        ("sync-mid", lambda r: corpus.sync(r, corpus.ordered(r, sync_mid),
                                           2)),
        ("travel-mid", travel_mid),
        ("travel-mid", travel_mid),
        ("travel-mid", travel_mid),
        ("path-mid", lambda r: corpus.bounded_path(r, 16, 36, 6)),
        ("counters-big", lambda r: corpus.counters(r, corpus.ordered(r, big))),
        ("ring-big", lambda r: corpus.token_ring(
            r, r.randrange(44, 52), r.randrange(0, 6))),
        ("travel-big", travel_big),
        ("travel-big", travel_big),
        ("travel-big", travel_big),
    ]


class Corpus:
    """The seeded program stream: warm-up programs, then blocks."""

    def __init__(self, seed: int, tiny: bool = False):
        import corpus
        self.unique = corpus.Unique(random.Random(seed))
        self.slots = slots(tiny)
        self.warmups = [self.unique.draw(
            lambda r: corpus.copy_chain(r, r.randrange(8, 16), 2))
            for _ in range(SETUPS)]
        self.blocks: list = []

    def block(self, index: int) -> list:
        while len(self.blocks) <= index:
            self.blocks.append([self.unique.draw(make)
                                for _, make in self.slots])
        return self.blocks[index]


def batch(program) -> list:
    """One program's batch: a deep ground ask plus an open answers."""
    return [program.asks[0], program.opens[0]]


def _service(workdir: WorkDir):
    from repro.serve import QueryService, SpecCache
    return QueryService(cache=SpecCache(workdir.fresh("cache") / "specs.db"))


def _serve(service, program) -> tuple[float, list]:
    from repro.serve.service import QueryRequest
    requests = [QueryRequest.from_dict(q.request(program.text))
                for q in batch(program)]
    start = time.perf_counter()
    responses = service.serve_batch(requests)
    return time.perf_counter() - start, [r.to_dict() for r in responses]


def _check(outcome: Outcome, program, responses: list) -> None:
    for query, response in zip(batch(program), responses):
        outcome.attempted += 1
        if not query.check(response):
            outcome.mismatch(f"{program.family}: {query.text}")


def import_seconds() -> float:
    """Time to import the service (run before anything else imports
    ``repro``, so it is part of the set-up a user pays)."""
    start = time.perf_counter()
    import repro.serve.service  # noqa: F401
    return time.perf_counter() - start


def setup(workdir: WorkDir, stream: Corpus) -> tuple:
    """Build the service and warm it with one program, :data:`SETUPS`
    times; returns (median seconds, the last service)."""
    times, service = [], None
    for warmup in stream.warmups:
        start = time.perf_counter()
        service = _service(workdir)
        _serve(service, warmup)
        times.append(time.perf_counter() - start)
    return median(times), service


def run(seed: int, seconds: float, trace: bool, tiny: bool = False) -> Outcome:
    outcome = Outcome()
    imports = import_seconds()
    stream = Corpus(seed, tiny)
    with WorkDir() as workdir:
        setup_s, service = setup(workdir, stream)
        setup_s += imports
        if trace:
            _traced(outcome, workdir, stream, seconds)
            return outcome
        times, results, rates = [], [], []
        for index in range(MAX_BLOCKS):
            if index and sum(times) >= seconds:
                break
            block = stream.block(index)
            block_s = 0.0
            for program in block:
                elapsed, responses = _serve(service, program)
                times.append(elapsed)
                block_s += elapsed
                results.append((program, responses))
            rates.append(len(block) / block_s)
    for program, responses in results:
        _check(outcome, program, responses)
    latencies = [t * 1e3 for t in times]
    outcome.metric("setup_s", setup_s, "s")
    outcome.metric("throughput_per_s", median(rates), "1/s")
    outcome.metric("latency_ms.p50", median(latencies), "ms")
    outcome.metric("latency_ms.tail", percentile(latencies, TAIL), "ms")
    outcome.metric("cold_ms.p50", median(latencies), "ms")
    outcome.metric("rss_peak_mb",
                   resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                   "MiB")
    outcome.notes += [
        f"cold programs: {len(times)} in {len(stream.blocks)} blocks of "
        f"{len(stream.slots)}; {stream.unique.reused} reuse an earlier "
        "rule set",
        f"cold_ask_ms.p50 = {median(latencies):.3f} ms",
        f"cold_ask_ms.p{TAIL} = {percentile(latencies, TAIL):.3f} ms",
        f"cold_programs_per_s = {median(rates):.3f} 1/s (median over "
        "blocks)",
    ]
    return outcome


def _traced(outcome: Outcome, workdir: WorkDir, stream: Corpus,
            seconds: float) -> None:
    """Each program runs untraced on one fresh service and traced on
    another (alternating which goes first); spans come from the traced
    half and the time ratio is the tracing overhead."""
    from spans import SERVICE_TARGETS, Recorder
    recorder = Recorder()
    plain, traced = _service(workdir), _service(workdir)
    counters = traced.cache.counters()
    plain_s = traced_s = 0.0
    results, first_block = [], 0
    for index in range(MAX_BLOCKS):
        if index and traced_s >= seconds / 2:
            break
        for position, program in enumerate(stream.block(index)):
            order = ("plain", "traced") if position % 2 else ("traced",
                                                              "plain")
            for side in order:
                if side == "plain":
                    elapsed, responses = _serve(plain, program)
                    plain_s += elapsed
                else:
                    recorder.install(SERVICE_TARGETS)
                    try:
                        elapsed, responses = _serve(traced, program)
                    finally:
                        recorder.uninstall()
                    traced_s += elapsed
                results.append((program, responses))
        if index == 0:
            first_block = len(recorder.spans)
    for program, responses in results:
        _check(outcome, program, responses)
    tree = SpanTree(recorder.spans, "service.batch")
    values = tree.metrics()
    requests = outcome.attempted / 2
    values["lang.parse_per_req"] = tree.count("lang.parse") / requests
    values["cache.hit_ratio"], values["cache.mem_hit_ratio"] = hit_ratios(
        counters, traced.cache.counters())
    values["spec.size"] = sum(s.get("size", 0)
                              for s in recorder.spans[:first_block]
                              if s["name"] == "spec.build")
    values["trace.overhead_ratio"] = traced_s / plain_s
    absent = sorted(set(recorder.absent))
    values["trace.absent_layers"] = len(absent)
    outcome.layers.update(values)
    outcome.notes += [f"absent layer: {name}" for name in absent]
    outcome.notes.append(tree.coverage_note("batches"))
