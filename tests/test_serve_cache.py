"""Spec-cache behaviour: layers, eviction, corruption, CLI tooling.

The corruption contract (the paper's finite object is *derived* data,
so the cache may always be rebuilt): truncated rows, garbage rows,
version-mismatched rows, and even a cache file that is not SQLite at
all must all read as clean misses — recompute, never crash, never
serve a stale or half-decoded specification.
"""

from __future__ import annotations

import hashlib
import io
import json
import multiprocessing
import sqlite3
import time

import pytest

from repro.cli import main
from repro.core import TDD, compute_specification
from repro.core.serialize import FORMAT_VERSION, spec_to_dict
from repro.lang.errors import ReproError
from repro.serve import (DISK, MEMORY, QueryRequest, QueryService,
                         SpecCache, tdd_key)
from repro.serve.cache import text_digest

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


def _text_rows(path) -> dict:
    """digest -> key of every text row in a cache file."""
    connection = sqlite3.connect(str(path))
    try:
        return dict(connection.execute(
            "SELECT digest, key FROM texts").fetchall())
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


class TestTextRows:
    """A raw program text reaches its spec through its text row; a bad
    text row, or one naming a bad spec row, is a clean miss that takes
    the parse path and never serves a stale answer."""

    def _seed(self, cache_path) -> str:
        """Serve EVEN once, storing its spec row and its text row."""
        service = QueryService(cache=SpecCache(cache_path))
        response = service.serve(QueryRequest(program=EVEN,
                                              query="even(0)"))
        assert _text_rows(cache_path) == {text_digest(EVEN):
                                          response.key}
        return response.key

    def _serve_fresh(self, cache_path, query: str = "even(4)"):
        service = QueryService(cache=SpecCache(cache_path))
        response = service.serve(QueryRequest(program=EVEN, query=query))
        return service, response

    def test_text_row_answers_without_a_parse(self, cache_path):
        key = self._seed(cache_path)
        service, response = self._serve_fresh(cache_path)
        assert response.ok and response.answer is True
        assert response.source == DISK and response.key == key
        assert service.counters()["parses"] == 0
        counters = service.cache.counters()
        assert (counters["lookups"], counters["disk_hits"]) == (1, 1)

    @pytest.mark.parametrize("garbled", [
        "not json }{", '{"even": 1}', "[1]", '"even"'])
    def test_garbled_temporal_is_a_clean_miss(self, cache_path,
                                              garbled):
        key = self._seed(cache_path)
        _tamper(cache_path, "UPDATE texts SET temporal = ?", garbled)
        service, response = self._serve_fresh(cache_path)
        assert response.ok and response.answer is True
        assert response.key == key
        # The parse path found the intact spec row by its key, and
        # wrote the text row again.
        assert service.counters()["parses"] == 1
        assert service.counters()["spec_computes"] == 0
        assert response.source == DISK
        assert service.cache.counters()["corrupt"] == 0
        assert _text_rows(cache_path) == {text_digest(EVEN): key}
        again, response = self._serve_fresh(cache_path)
        assert response.answer is True
        assert again.counters()["parses"] == 0

    def test_version_skewed_text_row_is_a_clean_miss(self, cache_path):
        key = self._seed(cache_path)
        _tamper(cache_path, "UPDATE texts SET format = 999")
        service, response = self._serve_fresh(cache_path)
        assert response.ok and response.answer is True
        assert service.counters()["parses"] == 1
        assert response.source == DISK and response.key == key

    @pytest.mark.parametrize("sql, corrupt", [
        ("DELETE FROM specs", 0),
        ("UPDATE specs SET format = 999", 1),
        ("UPDATE specs SET payload = 'garbage'", 1),
    ], ids=["deleted", "version-skew", "garbage"])
    def test_text_row_naming_a_bad_spec_recomputes(self, cache_path,
                                                   sql, corrupt):
        key = self._seed(cache_path)
        # Swap in the spec of another program, which no answer may
        # come from.
        odd = TDD.from_text(ODD)
        _tamper(cache_path, "UPDATE specs SET payload = ?",
                json.dumps(spec_to_dict(compute_specification(
                    odd.rules, odd.database))))
        _tamper(cache_path, sql)
        service, response = self._serve_fresh(cache_path)
        assert response.ok and response.answer is True
        assert response.source == "computed" and response.key == key
        assert service.counters()["parses"] == 1
        assert service.counters()["spec_computes"] == 1
        assert service.cache.counters()["corrupt"] == corrupt
        assert _text_rows(cache_path) == {text_digest(EVEN): key}
        again, response = self._serve_fresh(cache_path, "even(5)")
        assert response.ok and response.answer is False
        assert again.counters()["parses"] == 0

    def test_row_of_a_text_that_no_longer_parses(self, cache_path):
        """A parser that starts refusing a text comes with a new
        FORMAT_VERSION, so the row an older parser wrote for that text
        is a miss: the request meets the parse error, never the spec
        the row names."""
        key = self._seed(cache_path)
        refused = EVEN + "even(1"
        _tamper(cache_path, "INSERT INTO texts VALUES (?, ?, ?, ?)",
                text_digest(refused), key, FORMAT_VERSION - 1,
                '["even"]')
        service = QueryService(cache=SpecCache(cache_path))
        response = service.serve(QueryRequest(program=refused,
                                              query="even(4)"))
        assert not response.ok
        assert response.error.startswith("program parse error")
        assert service.counters()["parses"] == 1
        assert _text_rows(cache_path) == {text_digest(EVEN): key}

    def test_invalidate_and_clear_drop_text_rows(self, cache_path,
                                                 even_spec):
        key, spec = even_spec
        cache = SpecCache(cache_path)
        cache.put(key, spec, digest=text_digest(EVEN),
                  temporal={"even"})
        cache.put_text(text_digest(EVEN + "\n"), key, {"even"})
        cache.put("other", spec, digest=text_digest(ODD),
                  temporal={"odd"})
        assert _text_rows(cache_path) == {
            text_digest(EVEN): key, text_digest(EVEN + "\n"): key,
            text_digest(ODD): "other"}
        assert cache.invalidate(key)
        assert _text_rows(cache_path) == {text_digest(ODD): "other"}
        assert cache.get_text(text_digest(EVEN)) is None
        assert cache.get_text(text_digest(ODD)) == ("other",
                                                    frozenset({"odd"}))
        assert cache.clear() == 1
        assert _text_rows(cache_path) == {}
        assert cache.get_text(text_digest(ODD)) is None

    @pytest.mark.parametrize("on_disk", [True, False],
                             ids=["file", "memory"])
    def test_text_map_stays_bounded(self, cache_path, on_disk):
        cache = SpecCache(cache_path if on_disk else None, memory_size=8)
        service = QueryService(cache=cache)
        texts = [EVEN + "\n" * blank for blank in range(200)]
        for text in texts:
            response = service.serve(QueryRequest(program=text,
                                                  query="even(4)"))
            assert response.ok and response.answer is True
        assert service.counters()["parses"] == 200
        assert len(cache._texts) <= cache.memory_size
        # The most recent text still skips its parse.
        service.serve(QueryRequest(program=texts[-1], query="even(2)"))
        assert service.counters()["parses"] == 200
        if on_disk:
            assert len(_text_rows(cache_path)) == 200

    def test_counters_reconcile_over_text_hits(self, cache_path):
        self._seed(cache_path)
        service, _ = self._serve_fresh(cache_path)
        for t in range(3):
            for text in (EVEN, EVEN + "\n"):
                service.serve(QueryRequest(program=text,
                                           query=f"even({t})"))
        counters = service.cache.counters()
        # One lookup per group: the disk text hit, then memory hits by
        # text, or by key after the second text's one text miss.
        assert (counters["lookups"], counters["mem_hits"],
                counters["disk_hits"], counters["misses"]) == (7, 6, 1, 0)
        assert service.counters()["parses"] == 1


#: Texts covering the program syntax: comments, blank lines, intervals,
#: negation, declarations, quoted constants, and texts the parser or
#: the validator refuses.
PINNED_TEXTS = [
    "even(T+2) :- even(T).\neven(0).\n",
    "even(0).\n\neven(T+2) :- even(T).   % the same program\n",
    "plane(T+7, X) :- plane(T, X), resort(X), offseason(T).\n"
    "plane(12, hunter).\nresort(hunter).\noffseason(91..364).\n",
    "out(T) :- slot(T), not jam(T).\nslot(T+1) :- slot(T).\n"
    "slot(0).\njam(3).\n",
    "path(K, X, Y) :- null(K), edge(X, Y).\nnull(K+1) :- null(K).\n"
    "null(0).\nedge(a, b).\n",
    "@temporal up.\n@nontemporal score.\nscore(3).\nready.\n",
    "# hash comment\nq(T+1, X) :- q(T, X).\nq(0, 'Hunter Mtn').\n"
    "r(c7).\n",
    "p(1).\n",
    "p(T+1, X) :- q(T).\nq(0).\n",
    "p(T+1 :- broken",
    "p(T+1) :- p(T), not q(T).\nq(T+1) :- q(T), not p(T).\np(0).\n",
    "p(X).\n",
    "p(T, X) :- q(T), q(X).\nq(T+1) :- q(T).\nq(0).\n",
    "p(\u0663).\n",
    "p(" + "9" * 5000 + ").\n",
]

#: FORMAT_VERSION -> SHA-256 of what PINNED_TEXTS parse to.
PARSE_PINS = {
    1: "15e30da6d00d5cc0c68c0ab0edcb2bf0f2002fd5a6aee7773ffe7a6190e0a9ba",
}


def test_parse_results_are_pinned_to_the_format_version():
    """A text row trusts that, under one FORMAT_VERSION, a text always
    parses to the same content key and temporal predicates, or is
    always refused.  A change to parsing that moves what one of these
    texts parses to must bump FORMAT_VERSION (which turns every older
    text row into a miss) and pin the new digest here."""
    results = []
    for text in PINNED_TEXTS:
        try:
            tdd = TDD.from_text(text)
        except ReproError:
            results.append(None)
        else:
            results.append([tdd_key(tdd), sorted(tdd.temporal_preds)])
    digest = hashlib.sha256(json.dumps(results).encode()).hexdigest()
    assert PARSE_PINS.get(FORMAT_VERSION) == digest, (
        "what the pinned texts parse to changed: bump FORMAT_VERSION "
        f"in repro.core.serialize and pin {digest}")


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

    def test_removed_file_gets_its_tables_back(self, cache_path,
                                               even_spec):
        """The cache file removed while in use: the first operation
        meets a new, empty file and fails as a miss; the next runs the
        schema again, and the file works as before."""
        key, spec = even_spec
        cache = SpecCache(cache_path)
        cache.put(key, spec)
        cache_path.unlink()
        cache.put("lost", spec)
        assert cache.counters()["corrupt"] == 1
        cache.put(key, spec, digest=text_digest(EVEN), temporal={"even"})
        assert cache.try_claim(key, "mine")
        assert cache.counters()["corrupt"] == 1
        fresh = SpecCache(cache_path)
        assert [entry["key"] for entry in fresh.entries()] == [key]
        assert fresh.get_text(text_digest(EVEN)) == (key,
                                                     frozenset({"even"}))
        assert fresh.get_with_source(key)[1] == DISK
        assert not fresh.try_claim(key, "other")


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
