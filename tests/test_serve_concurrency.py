"""Concurrency stress: 16 threads against one :class:`QueryService`.

The service's contract under concurrency:

* answers are identical to a serial baseline, request by request;
* spec computation is *single-flight* — N threads racing on the same
  cold key trigger exactly one BT run;
* the cache's hit/miss accounting stays consistent
  (``lookups == mem_hits + disk_hits + misses``) under interleaving.
"""

from __future__ import annotations

import sys
import threading

import pytest

import repro.temporal.bt as bt
from repro.serve import QueryRequest, QueryService, SpecCache

THREADS = 16

EVEN = "even(T+2) :- even(T).\neven(0).\n"
BLINK = "on(T+3) :- on(T).\noff(T+1) :- on(T).\non(1).\n"
COPY = ("p(T+1, X) :- p(T, X), base(X).\n"
        "p(0, a). p(2, b). base(a). base(b).\n")


def _workload() -> list[QueryRequest]:
    requests = []
    for program in (EVEN, BLINK, COPY):
        for t in (0, 1, 4, 7, 100, 10 ** 6):
            requests.append(QueryRequest(
                program=program, query=f"exists X: p({t}, X)"
                if program is COPY else
                ("even(%d)" % t if program is EVEN else "on(%d)" % t)))
    requests.append(QueryRequest(program=EVEN, query="even(X)",
                                 kind="answers", expand=12))
    requests.append(QueryRequest(program=BLINK, query="off(S)",
                                 kind="answers", expand=9))
    requests.append(QueryRequest(program=COPY, query="p(S, X)",
                                 kind="answers"))
    return requests


@pytest.fixture()
def workload():
    return _workload()


@pytest.fixture()
def baseline(workload):
    serial = QueryService(cache=SpecCache())
    return [serial.serve(request).to_dict() for request in workload]


def _strip_timing(response: dict) -> dict:
    data = dict(response)
    data.pop("elapsed_ms")
    data.pop("duration_ms")
    # Trace ids are unique per request by design.
    data.pop("trace_id")
    # The spec may come from the LRU, the disk, or this thread's own
    # computation depending on scheduling — only the answer is part of
    # the contract.
    data.pop("source")
    return data


class TestConcurrentServing:
    def test_sixteen_threads_match_serial_baseline(self, tmp_path,
                                                   workload, baseline):
        service = QueryService(
            cache=SpecCache(tmp_path / "specs.sqlite"))
        barrier = threading.Barrier(THREADS)
        results: dict[int, list[dict]] = {}
        errors: list[BaseException] = []

        def run(worker: int) -> None:
            try:
                barrier.wait()
                # Offset each worker's starting point so the threads
                # hit different programs simultaneously.
                shifted = (workload[worker % len(workload):]
                           + workload[:worker % len(workload)])
                answered = {}
                for request in shifted:
                    answered[workload.index(request)] = \
                        service.serve(request).to_dict()
                results[worker] = [answered[i]
                                   for i in range(len(workload))]
            except BaseException as exc:  # pragma: no cover - fail loud
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(worker,))
                   for worker in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors, errors
        assert len(results) == THREADS

        expected = [_strip_timing(r) for r in baseline]
        for worker in range(THREADS):
            got = [_strip_timing(r) for r in results[worker]]
            assert got == expected, f"worker {worker} diverged"

        # Single-flight: one BT run per distinct program, total.  The
        # cache started empty, so every key ran at least once, and a
        # total equal to the number of keys means each ran exactly once.
        keys = {response["key"] for response in baseline}
        assert len(keys) == 3
        assert service.counters()["spec_computes"] == len(keys)

        # Counter consistency under interleaving.
        counters = service.cache.counters()
        assert counters["lookups"] == (counters["mem_hits"]
                                       + counters["disk_hits"]
                                       + counters["misses"])
        assert counters["stores"] == len(keys)
        # Text hits are mixed in: after its first request for a
        # program, a thread finds the text's row and parses no more.
        assert service.counters()["parses"] <= THREADS * len(keys)
        assert counters["lookups"] >= THREADS * len(workload)
        assert service.counters()["requests"] == THREADS * len(workload)
        assert service.counters()["errors"] == 0

        # Telemetry invariant: exactly one latency observation per
        # request, and the bucket counts account for every one.
        latency = service.latency.to_dict()
        assert latency["count"] == THREADS * len(workload)
        assert latency["count"] == sum(n for _, n in
                                       latency["buckets"])
        assert latency["p50"] <= latency["p95"] <= latency["p99"]

    def test_cold_key_race_is_single_flight(self, tmp_path):
        """All 16 threads race one cold key at the same instant."""
        service = QueryService(
            cache=SpecCache(tmp_path / "specs.sqlite"))
        barrier = threading.Barrier(THREADS)
        answers: list = []
        lock = threading.Lock()

        def run() -> None:
            barrier.wait()
            response = service.serve(
                QueryRequest(program=EVEN, query="even(123456)"))
            with lock:
                answers.append((response.ok, response.answer))

        threads = [threading.Thread(target=run)
                   for _ in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert answers == [(True, True)] * THREADS
        # One key on an empty cache: one BT run among all 16 threads.
        assert service.counters()["spec_computes"] == 1
        # Every holder and waiter has left, so its lock is gone too.
        assert service._key_locks == {}

    def test_timed_out_waiters_release_the_key_lock(self, monkeypatch):
        """15 zero-deadline threads time out on a key whose computation
        is held mid-pass; each must leave the lock table as it goes."""
        service = QueryService(cache=SpecCache())
        entered, release = threading.Event(), threading.Event()
        original = bt.evaluate_window

        def held(*args, **kwargs):
            if not entered.is_set():
                entered.set()
                release.wait(timeout=60)
            return original(*args, **kwargs)

        monkeypatch.setattr(bt, "evaluate_window", held)
        answers: list = []
        lock = threading.Lock()

        def run(deadline) -> None:
            response = service.serve(QueryRequest(
                program=EVEN, query="even(400)", deadline=deadline))
            with lock:
                answers.append((response.ok, response.degraded,
                                response.answer))

        holder = threading.Thread(target=run, args=(None,))
        holder.start()
        assert entered.wait(timeout=60)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            waiters = [threading.Thread(target=run, args=(0.0,))
                       for _ in range(THREADS - 1)]
            for thread in waiters:
                thread.start()
            for thread in waiters:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in waiters)
        assert answers == [(True, True, True)] * (THREADS - 1)
        assert service.counters()["singleflight_waits"] == THREADS - 1
        # Only the holder is left on the key.
        assert [entry[1] for entry in service._key_locks.values()] == [1]
        release.set()
        holder.join(timeout=60)
        assert not holder.is_alive()
        assert answers[-1] == (True, False, True)
        assert service._key_locks == {}
