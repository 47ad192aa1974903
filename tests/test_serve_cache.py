"""Spec-cache behaviour: layers, eviction, corruption, CLI tooling.

The corruption contract (the paper's finite object is *derived* data,
so the cache may always be rebuilt): truncated rows, garbage rows,
version-mismatched rows, and even a cache file that is not SQLite at
all must all read as clean misses — recompute, never crash, never
serve a stale or half-decoded specification.
"""

from __future__ import annotations

import io
import json
import multiprocessing
import sqlite3
import time

import pytest

from repro.cli import main
from repro.core import TDD, compute_specification
from repro.core.serialize import spec_to_dict
from repro.serve import DISK, MEMORY, SpecCache, tdd_key

EVEN = "even(T+2) :- even(T).\neven(0).\n"
ODD = "odd(T+2) :- odd(T).\nodd(1).\n"

# fork, explicitly: the workers below are plain closures over the
# parent's state, and every child builds its own SQLite connections
# (SpecCache opens one per operation, so none cross the fork).
_MP = multiprocessing.get_context("fork")


@pytest.fixture()
def cache_path(tmp_path):
    return tmp_path / "specs.sqlite"


@pytest.fixture()
def even_spec():
    tdd = TDD.from_text(EVEN)
    return tdd_key(tdd), compute_specification(
        tdd.rules, tdd.database)


def _tamper(path, sql: str, *params) -> None:
    connection = sqlite3.connect(str(path))
    try:
        connection.execute(sql, params)
        connection.commit()
    finally:
        connection.close()


class TestLayers:
    def test_round_trip_through_both_layers(self, cache_path,
                                            even_spec):
        key, spec = even_spec
        cache = SpecCache(cache_path)
        assert cache.get(key) is None
        cache.put(key, spec)
        got, source = cache.get_with_source(key)
        assert source == MEMORY
        assert spec_to_dict(got) == spec_to_dict(spec)
        # A fresh instance has a cold LRU: the hit must come from disk.
        reopened = SpecCache(cache_path)
        got, source = reopened.get_with_source(key)
        assert source == DISK
        assert spec_to_dict(got) == spec_to_dict(spec)

    def test_memory_only_cache(self, even_spec):
        key, spec = even_spec
        cache = SpecCache()
        cache.put(key, spec)
        assert cache.get_with_source(key)[1] == MEMORY
        assert cache.entries()[0]["layer"] == MEMORY

    def test_lru_evicts_but_disk_retains(self, cache_path, even_spec):
        key, spec = even_spec
        cache = SpecCache(cache_path, memory_size=2)
        cache.put(key, spec)
        cache.put("k2", spec)
        cache.put("k3", spec)
        assert cache.counters()["evictions"] == 1
        assert cache.counters()["memory_entries"] == 2
        # The evicted key still hits, one layer down.
        got, source = cache.get_with_source(key)
        assert got is not None and source == DISK

    def test_invalidate_drops_both_layers(self, cache_path, even_spec):
        key, spec = even_spec
        cache = SpecCache(cache_path)
        cache.put(key, spec)
        assert cache.invalidate(key)
        assert cache.get(key) is None
        assert not cache.invalidate(key)
        assert SpecCache(cache_path).get(key) is None

    def test_clear(self, cache_path, even_spec):
        key, spec = even_spec
        cache = SpecCache(cache_path)
        cache.put(key, spec)
        cache.put("other", spec)
        assert cache.clear() == 2
        assert cache.entries() == []

    def test_counters_always_reconcile(self, cache_path, even_spec):
        key, spec = even_spec
        cache = SpecCache(cache_path)
        cache.get(key)
        cache.put(key, spec)
        cache.get(key)
        SpecCache(cache_path).get(key)
        counters = cache.counters()
        assert counters["lookups"] == (counters["mem_hits"]
                                       + counters["disk_hits"]
                                       + counters["misses"])


class TestCorruption:
    def _seed(self, cache_path, even_spec) -> str:
        key, spec = even_spec
        SpecCache(cache_path).put(key, spec)
        return key

    def test_truncated_payload_misses_cleanly(self, cache_path,
                                              even_spec):
        key = self._seed(cache_path, even_spec)
        _tamper(cache_path,
                "UPDATE specs SET payload = substr(payload, 1, 20)")
        cache = SpecCache(cache_path)
        assert cache.get(key) is None
        assert cache.counters()["corrupt"] == 1
        # The poisoned row is gone; a recompute repopulates it.
        cache.put(key, even_spec[1])
        assert SpecCache(cache_path).get(key) is not None

    def test_garbage_payload_misses_cleanly(self, cache_path,
                                            even_spec):
        key = self._seed(cache_path, even_spec)
        _tamper(cache_path, "UPDATE specs SET payload = 'not json }{'")
        cache = SpecCache(cache_path)
        assert cache.get(key) is None
        assert cache.counters()["corrupt"] == 1

    def test_valid_json_wrong_shape_misses_cleanly(self, cache_path,
                                                   even_spec):
        key = self._seed(cache_path, even_spec)
        _tamper(cache_path, "UPDATE specs SET payload = ?",
                json.dumps({"format": 1, "surprise": True}))
        assert SpecCache(cache_path).get(key) is None

    def test_version_mismatch_misses_and_never_serves_stale(
            self, cache_path, even_spec):
        key = self._seed(cache_path, even_spec)
        _tamper(cache_path, "UPDATE specs SET format = 999")
        cache = SpecCache(cache_path)
        assert cache.get(key) is None, \
            "a future-format row must never be decoded"
        assert cache.counters()["corrupt"] == 1
        # The stale row was dropped, so a fresh put wins and sticks.
        cache.put(key, even_spec[1])
        got, source = SpecCache(cache_path).get_with_source(key)
        assert got is not None and source == DISK

    def test_not_a_sqlite_file_degrades_to_memory_only(self, tmp_path,
                                                       even_spec):
        key, spec = even_spec
        path = tmp_path / "junk.sqlite"
        path.write_bytes(b"this is not a sqlite database at all")
        cache = SpecCache(path)
        assert cache.get(key) is None
        cache.put(key, spec)  # must not raise
        assert cache.get_with_source(key)[1] == MEMORY
        assert cache.counters()["corrupt"] >= 1

    def test_service_recomputes_through_corruption(self, cache_path,
                                                   even_spec):
        """End to end: a poisoned cache never changes an answer."""
        from repro.serve import QueryRequest, QueryService
        key = self._seed(cache_path, even_spec)
        _tamper(cache_path, "UPDATE specs SET payload = 'garbage'")
        service = QueryService(cache=SpecCache(cache_path))
        response = service.serve(
            QueryRequest(program=EVEN, query="even(10)"))
        assert response.ok and response.answer is True
        assert response.source == "computed"
        assert response.key == key
        assert service.counters()["spec_computes"] == 1


def _racing_put(path: str, barrier, results) -> None:
    """Child: compute the EVEN spec independently and hammer put()."""
    tdd = TDD.from_text(EVEN)
    key = tdd_key(tdd)
    spec = compute_specification(tdd.rules, tdd.database)
    cache = SpecCache(path)
    barrier.wait(timeout=30)
    for _ in range(5):
        cache.put(key, spec)
    results.put(key)


def _racing_claim(path: str, key: str, index: int, barrier,
                  results) -> None:
    """Child: race one try_claim against the sibling processes."""
    cache = SpecCache(path)
    owner = f"proc-{index}"
    barrier.wait(timeout=30)
    won = cache.try_claim(key, owner)
    results.put((index, won))
    if won:
        # Hold the lease until the losers have reported, then free it.
        time.sleep(0.5)
        cache.release_claim(key, owner)


def _racing_serve(path: str, barrier, results) -> None:
    """Child: answer the same query through a private QueryService."""
    from repro.serve import QueryRequest, QueryService
    service = QueryService(cache=SpecCache(path))
    barrier.wait(timeout=30)
    response = service.serve(
        QueryRequest(program=EVEN, query="even(8)"))
    results.put((response.ok, response.answer,
                 service.cache.counters()["flights_claimed"]))


class TestMultiProcessWriters:
    """Two (or more) worker processes sharing one cache file: racing
    writers converge to a single clean row, and the cross-process
    single-flight lease admits exactly one computer at a time."""

    WRITERS = 4

    def _run(self, target, args_for) -> None:
        processes = [_MP.Process(target=target, args=args_for(i))
                     for i in range(self.WRITERS)]
        for process in processes:
            process.start()
        for process in processes:
            process.join(timeout=60)
        assert all(p.exitcode == 0 for p in processes), \
            [p.exitcode for p in processes]

    def test_racing_writers_converge_to_one_clean_row(
            self, cache_path, even_spec):
        key, spec = even_spec
        barrier = _MP.Barrier(self.WRITERS)
        results = _MP.Queue()
        self._run(_racing_put,
                  lambda i: (str(cache_path), barrier, results))
        keys = {results.get(timeout=10)
                for _ in range(self.WRITERS)}
        assert keys == {key}, "every process derived the same key"
        connection = sqlite3.connect(str(cache_path))
        try:
            (rows,) = connection.execute(
                "SELECT COUNT(*) FROM specs WHERE key = ?",
                (key,)).fetchone()
        finally:
            connection.close()
        assert rows == 1
        # the surviving row is intact, not an interleaved mess
        fresh = SpecCache(cache_path)
        got, source = fresh.get_with_source(key)
        assert source == DISK
        assert spec_to_dict(got) == spec_to_dict(spec)
        assert fresh.counters()["corrupt"] == 0

    def test_claim_race_has_exactly_one_winner(self, cache_path):
        # materialize the cache file (and the flights table) first
        SpecCache(cache_path)._connect().close()
        barrier = _MP.Barrier(self.WRITERS)
        results = _MP.Queue()
        self._run(_racing_claim,
                  lambda i: (str(cache_path), "race-key", i,
                             barrier, results))
        outcomes = [results.get(timeout=10)
                    for _ in range(self.WRITERS)]
        winners = [index for index, won in outcomes if won]
        assert len(winners) == 1, outcomes
        # the winner released on exit: the key is claimable again
        cache = SpecCache(cache_path)
        assert cache.try_claim("race-key", "parent")
        cache.release_claim("race-key", "parent")

    def test_expired_lease_is_reclaimable(self, cache_path):
        cache = SpecCache(cache_path)
        assert cache.try_claim("k", "first", ttl=0.05)
        other = SpecCache(cache_path)
        assert not other.try_claim("k", "second")
        assert other.counters()["flights_rejected"] == 1
        time.sleep(0.1)
        # "first" died without releasing: the TTL frees the key
        assert other.try_claim("k", "second")
        other.release_claim("k", "second")

    def test_release_is_owner_scoped_and_idempotent(self, cache_path):
        cache = SpecCache(cache_path)
        assert cache.try_claim("k", "mine")
        cache.release_claim("k", "theirs")  # no-op: wrong owner
        assert not SpecCache(cache_path).try_claim("k", "other")
        cache.release_claim("k", "mine")
        cache.release_claim("k", "mine")  # idempotent
        assert SpecCache(cache_path).try_claim("k", "other")

    def test_memory_only_cache_always_grants(self, even_spec):
        cache = SpecCache()
        assert cache.try_claim("k", "a")
        assert cache.try_claim("k", "b"), \
            "no shared file, no cross-process race to arbitrate"

    def test_racing_services_agree_and_share_the_row(self,
                                                     cache_path):
        key = tdd_key(TDD.from_text(EVEN))
        barrier = _MP.Barrier(self.WRITERS)
        results = _MP.Queue()
        self._run(_racing_serve,
                  lambda i: (str(cache_path), barrier, results))
        outcomes = [results.get(timeout=10)
                    for _ in range(self.WRITERS)]
        assert all(ok and answer is True
                   for ok, answer, _ in outcomes), outcomes
        connection = sqlite3.connect(str(cache_path))
        try:
            (rows,) = connection.execute(
                "SELECT COUNT(*) FROM specs WHERE key = ?",
                (key,)).fetchone()
        finally:
            connection.close()
        assert rows == 1


class TestCacheCLI:
    def _warm(self, cache_path, program_path) -> None:
        code = main(["spec", str(program_path), "--cache",
                     str(cache_path)], out=io.StringIO())
        assert code == 0

    @pytest.fixture()
    def program_path(self, tmp_path):
        path = tmp_path / "even.tdd"
        path.write_text(EVEN)
        return path

    def test_ls_and_stats(self, cache_path, program_path, capsys):
        self._warm(cache_path, program_path)
        out = io.StringIO()
        assert main(["cache", "ls", str(cache_path)], out=out) == 0
        listing = out.getvalue()
        assert "key" in listing and "bytes" in listing
        out = io.StringIO()
        assert main(["cache", "stats", str(cache_path)], out=out) == 0
        assert "entries: 1" in out.getvalue()

    def test_rm_by_prefix_and_all(self, cache_path, program_path,
                                  tmp_path):
        self._warm(cache_path, program_path)
        odd_path = tmp_path / "odd.tdd"
        odd_path.write_text(ODD)
        self._warm(cache_path, odd_path)
        entries = SpecCache(cache_path).entries()
        assert len(entries) == 2
        out = io.StringIO()
        assert main(["cache", "rm", str(cache_path),
                     entries[0]["key"][:12]], out=out) == 0
        assert len(SpecCache(cache_path).entries()) == 1
        assert main(["cache", "rm", str(cache_path), "--all"],
                    out=io.StringIO()) == 0
        assert SpecCache(cache_path).entries() == []

    def test_rm_without_key_errors(self, cache_path, capsys):
        assert main(["cache", "rm", str(cache_path)],
                    out=io.StringIO()) == 2
        assert "needs a KEY or --all" in capsys.readouterr().err

    def test_rm_ambiguous_prefix_errors(self, cache_path, even_spec,
                                        capsys):
        key, spec = even_spec
        cache = SpecCache(cache_path)
        cache.put("deadbeef01", spec)
        cache.put("deadbeef02", spec)
        assert main(["cache", "rm", str(cache_path), "deadbeef"],
                    out=io.StringIO()) == 1
        assert "ambiguous" in capsys.readouterr().err

    def test_garbage_cache_file_reports_cleanly(self, tmp_path,
                                                capsys):
        path = tmp_path / "junk.sqlite"
        path.write_bytes(b"garbage bytes, not sqlite")
        assert main(["cache", "ls", str(path)],
                    out=io.StringIO()) == 2
        assert "not a usable spec cache" in capsys.readouterr().err


class TestCachedCLIQueries:
    def test_warm_ask_skips_bt(self, tmp_path):
        program = tmp_path / "even.tdd"
        program.write_text(EVEN)
        cache = tmp_path / "specs.sqlite"
        out = io.StringIO()
        assert main(["ask", str(program), "even(4)", "--cache",
                     str(cache), "--stats"], out=out) == 0
        assert "'source': 'computed'" in out.getvalue()
        out = io.StringIO()
        assert main(["ask", str(program), "even(4)", "--cache",
                     str(cache), "--stats"], out=out) == 0
        text = out.getvalue()
        assert "'source': 'disk'" in text
        assert "rounds:            0" in text, \
            "a warm hit must not run BT"

    def test_warm_answers_agree_with_cold(self, tmp_path):
        program = tmp_path / "even.tdd"
        program.write_text(EVEN)
        cache = tmp_path / "specs.sqlite"
        cold, warm = io.StringIO(), io.StringIO()
        assert main(["answers", str(program), "even(X)", "--expand",
                     "10", "--cache", str(cache)], out=cold) == 0
        assert main(["answers", str(program), "even(X)", "--expand",
                     "10", "--cache", str(cache)], out=warm) == 0
        assert cold.getvalue() == warm.getvalue()
