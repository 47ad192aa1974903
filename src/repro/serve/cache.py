"""Content-addressed persistent cache of relational specifications.

Theorem 4.1 makes the specification ``S(Z∧D) = (T, B, W)`` the unit of
work worth paying for once: computing it costs a full BT run, while every
query afterwards is answered from the finite object in polynomial time.
This module turns that observation into infrastructure — a cache keyed by
the *content* of the TDD, so that any process (or any later run) that
sees the same program + database reuses the spec instead of recomputing.

Keys
----

The cache key is the SHA-256 hex digest of the *normalized* program
text: :func:`repro.lang.format_program` renders rules, sorted facts, and
``@temporal`` declarations deterministically, so two TDDs with the same
rules and facts (in any order, any whitespace) share a key, and any
change to either part changes it.  See :func:`program_key`.

Finding that key takes a parse.  A raw program text whose spec was
stored before skips it: :meth:`SpecCache.get_text` maps the text's own
SHA-256 (:func:`text_digest`) to the content key and the temporal
predicates its parse produced, and the keyed lookup goes on from there.
A text row records what one parser made of those bytes, so any change
to what some text parses to — its content key, its temporal predicates,
or whether it parses at all — bumps
:data:`repro.core.serialize.FORMAT_VERSION`.

Storage
-------

Two layers, checked in order:

* in-process LRU dictionaries (``memory_size`` entries each,
  thread-safe): content key → spec, and text digest → (content key,
  temporal predicates);
* a SQLite file (``path=None`` keeps the cache purely in-memory) with a
  table ``specs(key, format, created, payload)`` and a table
  ``texts(digest, key, format, temporal)`` holding one row per raw
  program text a spec was stored or found for.  :meth:`SpecCache.put`
  writes a spec row and its text row in one transaction.

Every operation opens its own connection and closes it, so no lock
outlives an operation.  The schema script runs on a cache's first
connection, and again on the next one after any SQLite error, so a
cache file removed or replaced while in use gets its tables back.

Payloads are the JSON of :func:`repro.core.serialize.spec_to_dict`.  A
row whose payload fails to decode, or whose ``format`` does not match
the current :data:`repro.core.serialize.FORMAT_VERSION`, is treated as a
clean miss: the row is deleted and the spec recomputed — corruption and
version skew can never surface as a crash or a stale answer.  A text
row is held to the same rule: a version-skewed row, or one whose
temporal predicates do not decode, is deleted and reads as a miss.
"""

from __future__ import annotations

import hashlib
import json
import sqlite3
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator, Union

from ..core.serialize import FORMAT_VERSION, spec_from_dict, spec_to_dict
from ..core.spec import RelationalSpec
from ..lang.atoms import Fact
from ..lang.pretty import format_program
from ..lang.rules import Rule

#: Sources a cache hit can come from (reported in responses and stats).
MEMORY = "memory"
DISK = "disk"

_SCHEMA = """
CREATE TABLE IF NOT EXISTS specs (
    key TEXT PRIMARY KEY,
    format INTEGER NOT NULL,
    created REAL NOT NULL,
    payload TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS flights (
    key TEXT PRIMARY KEY,
    owner TEXT NOT NULL,
    expires REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS texts (
    digest TEXT PRIMARY KEY,
    key TEXT NOT NULL,
    format INTEGER NOT NULL,
    temporal TEXT NOT NULL
);
"""

#: Default lifetime of a cross-process flight lease (seconds).  Long
#: enough for any sane spec computation; short enough that a worker
#: SIGKILLed mid-compute only stalls its peers briefly before one of
#: them takes the claim over.
FLIGHT_TTL = 30.0


def normalized_program(rules: Iterable[Rule], facts: Iterable[Fact],
                       temporal_preds: Iterable[str] = ()) -> str:
    """The canonical text a cache key is derived from."""
    proper = [r for r in rules if not r.is_fact]
    return format_program(proper, facts, temporal_preds)


def program_key(rules: Iterable[Rule], facts: Iterable[Fact],
                temporal_preds: Iterable[str] = ()) -> str:
    """SHA-256 content key of a TDD (hex digest).

    Derived from :func:`normalized_program`, so ordering and whitespace
    differences do not split the cache, while any semantic change to the
    rules or the database yields a fresh key.
    """
    text = normalized_program(rules, facts, temporal_preds)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def tdd_key(tdd) -> str:
    """Content key of a :class:`repro.core.tdd.TDD`."""
    return program_key(tdd.rules, tdd.database.facts(),
                       tdd.temporal_preds)


def text_digest(text: str) -> str:
    """SHA-256 of a raw program text (hex digest), the key of its text
    row.  Any ``str`` hashes, lone surrogates included."""
    return hashlib.sha256(
        text.encode("utf-8", "surrogatepass")).hexdigest()


def _decode_temporal(value) -> Union[frozenset[str], None]:
    """A text row's temporal predicates, or None when garbled."""
    try:
        names = json.loads(value)
    except (TypeError, ValueError):
        return None
    if not isinstance(names, list) or not all(isinstance(name, str)
                                              for name in names):
        return None
    return frozenset(names)


class SpecCache:
    """Two-layer (LRU + SQLite) specification cache, thread-safe.

    All counters are plain ints guarded by the instance lock;
    :meth:`counters` snapshots them for stats reporting.  ``lookups``
    always equals ``mem_hits + disk_hits + misses``.
    """

    def __init__(self, path: Union[str, Path, None] = None,
                 memory_size: int = 64):
        if memory_size < 1:
            raise ValueError("memory_size must be at least 1")
        self.path = None if path is None else Path(path)
        self.memory_size = memory_size
        self._memory: OrderedDict[str, RelationalSpec] = OrderedDict()
        #: text digest -> (content key, temporal predicates).
        self._texts: OrderedDict[str, tuple[str, frozenset[str]]] = \
            OrderedDict()
        self._lock = threading.Lock()
        self._schema_ready = False
        self.lookups = 0
        self.mem_hits = 0
        self.disk_hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0
        self.invalidations = 0
        self.corrupt = 0
        self.flights_claimed = 0
        self.flights_rejected = 0

    # -- SQLite layer ----------------------------------------------------

    def _connect(self) -> sqlite3.Connection:
        """A new connection to the cache file; the schema script runs
        on the first, and on the next after a failed operation.  The
        flag is unlocked: a thread reading it stale runs the
        idempotent script once more, or fails one operation, which
        clears it again."""
        assert self.path is not None
        connection = sqlite3.connect(str(self.path))
        if not self._schema_ready:
            try:
                connection.executescript(_SCHEMA)
            except sqlite3.Error:
                connection.close()
                raise
            self._schema_ready = True
        return connection

    @contextmanager
    def _connection(self) -> Iterator[sqlite3.Connection]:
        """One operation's connection, closed when it ends.  A SQLite
        error inside makes the next connection run the schema again:
        the file may have been removed or replaced under this cache."""
        connection = self._connect()
        try:
            yield connection
        except sqlite3.Error:
            self._schema_ready = False
            raise
        finally:
            connection.close()

    def _corrupt(self, parent, reason: str) -> None:
        """Count a corruption event; record a span when traced."""
        self.corrupt += 1
        if parent is not None:
            parent.child("cache.corrupt", reason=reason).end()

    def _disk_get(self, key: str,
                  parent=None) -> Union[RelationalSpec, None]:
        if self.path is None:
            return None
        try:
            with self._connection() as connection:
                row = connection.execute(
                    "SELECT format, payload FROM specs WHERE key = ?",
                    (key,)).fetchone()
                if row is None:
                    return None
                fmt, payload = row
                if fmt != FORMAT_VERSION:
                    # Version skew: drop the row, report a miss.
                    connection.execute("DELETE FROM specs WHERE key = ?",
                                       (key,))
                    connection.commit()
                    self._corrupt(parent, "version-skew")
                    return None
                try:
                    return spec_from_dict(json.loads(payload))
                except (ValueError, KeyError, TypeError):
                    # Truncated or garbage payload: same treatment.
                    connection.execute("DELETE FROM specs WHERE key = ?",
                                       (key,))
                    connection.commit()
                    self._corrupt(parent, "garbage-payload")
                    return None
        except sqlite3.Error:
            self._corrupt(parent, "sqlite-error")
            return None

    def _disk_get_text(self, digest: str) -> Union[
            tuple[str, frozenset[str]], None]:
        if self.path is None:
            return None
        try:
            with self._connection() as connection:
                row = connection.execute(
                    "SELECT key, format, temporal FROM texts "
                    "WHERE digest = ?", (digest,)).fetchone()
                if row is None:
                    return None
                key, fmt, temporal = row
                temporal = _decode_temporal(temporal)
                if fmt == FORMAT_VERSION and temporal is not None:
                    return key, temporal
                # Another format's parse, or garbled: drop it, a miss.
                connection.execute("DELETE FROM texts WHERE digest = ?",
                                   (digest,))
                connection.commit()
                return None
        except sqlite3.Error:
            return None

    def _disk_put(self, key: str, spec: RelationalSpec,
                  digest: Union[str, None],
                  temporal: frozenset[str]) -> None:
        if self.path is None:
            return
        payload = json.dumps(spec_to_dict(spec))
        try:
            with self._connection() as connection:
                connection.execute(
                    "INSERT OR REPLACE INTO specs "
                    "(key, format, created, payload) VALUES (?, ?, ?, ?)",
                    (key, FORMAT_VERSION, time.time(), payload))
                if digest is not None:
                    self._write_text(connection, digest, key, temporal)
                connection.commit()
        except sqlite3.Error:
            # An unusable cache file must not take query serving down;
            # the LRU layer still holds the entry for this process.
            self.corrupt += 1

    @staticmethod
    def _write_text(connection: sqlite3.Connection, digest: str,
                    key: str, temporal: frozenset[str]) -> None:
        connection.execute(
            "INSERT OR REPLACE INTO texts (digest, key, format, temporal) "
            "VALUES (?, ?, ?, ?)",
            (digest, key, FORMAT_VERSION, json.dumps(sorted(temporal))))

    # -- the public two-layer API ---------------------------------------

    def _remember(self, key: str, spec: RelationalSpec) -> None:
        self._memory[key] = spec
        self._memory.move_to_end(key)
        while len(self._memory) > self.memory_size:
            self._memory.popitem(last=False)
            self.evictions += 1

    def _remember_text(self, digest: str, key: str,
                       temporal: frozenset[str]) -> None:
        self._texts[digest] = (key, temporal)
        self._texts.move_to_end(digest)
        while len(self._texts) > self.memory_size:
            self._texts.popitem(last=False)

    def get(self, key: str,
            parent=None) -> Union[RelationalSpec, None]:
        """Look a key up; None on a miss.  Disk hits warm the LRU."""
        spec, _ = self.get_with_source(key, parent=parent)
        return spec

    def get_with_source(self, key: str, parent=None) -> tuple[
            Union[RelationalSpec, None], Union[str, None]]:
        """Like :meth:`get`, but also says which layer answered.

        ``parent`` is an optional :class:`repro.obs.Span`: when given,
        the lookup (and any corruption it uncovers) is recorded as a
        ``cache.lookup`` child span with an ``outcome`` attribute.
        """
        span = (None if parent is None
                else parent.child("cache.lookup", key=key[:12]))
        try:
            with self._lock:
                self.lookups += 1
                cached = self._memory.get(key)
                if cached is not None:
                    self._memory.move_to_end(key)
                    self.mem_hits += 1
                    if span is not None:
                        span.set_attribute("outcome", MEMORY)
                    return cached, MEMORY
                spec = self._disk_get(key, parent=span)
                if spec is not None:
                    self.disk_hits += 1
                    self._remember(key, spec)
                    if span is not None:
                        span.set_attribute("outcome", DISK)
                    return spec, DISK
                self.misses += 1
                if span is not None:
                    span.set_attribute("outcome", "miss")
                return None, None
        finally:
            if span is not None:
                span.end()

    def get_text(self, digest: str) -> Union[
            tuple[str, frozenset[str]], None]:
        """``(content key, temporal predicates)`` that a raw program
        text parsed to when its spec was stored or found, else None.

        ``digest`` is the text's :func:`text_digest`.  Counts nothing:
        the keyed lookup that follows counts the request.  Disk hits
        warm the in-memory text map.
        """
        with self._lock:
            entry = self._texts.get(digest)
            if entry is None:
                entry = self._disk_get_text(digest)
                if entry is None:
                    return None
            self._remember_text(digest, *entry)
            return entry

    def put(self, key: str, spec: RelationalSpec,
            digest: Union[str, None] = None,
            temporal: Iterable[str] = ()) -> None:
        """Store a spec in both layers.  With ``digest`` (the
        :func:`text_digest` of the program text it was computed for)
        and that text's ``temporal`` predicates, the text's row is
        written in the same transaction."""
        temporal = frozenset(temporal)
        with self._lock:
            self.stores += 1
            self._remember(key, spec)
            if digest is not None:
                self._remember_text(digest, key, temporal)
            self._disk_put(key, spec, digest, temporal)

    def put_text(self, digest: str, key: str,
                 temporal: Iterable[str]) -> None:
        """Record that the text with ``digest`` parses to ``key`` and
        ``temporal``: for a text first seen after its spec was cached
        under another text of the same program."""
        temporal = frozenset(temporal)
        with self._lock:
            self._remember_text(digest, key, temporal)
            if self.path is None:
                return
            try:
                with self._connection() as connection:
                    self._write_text(connection, digest, key, temporal)
                    connection.commit()
            except sqlite3.Error:
                self.corrupt += 1

    # -- cross-process single-flight leases ------------------------------

    def try_claim(self, key: str, owner: str,
                  ttl: float = FLIGHT_TTL) -> bool:
        """Claim the cross-process flight lease for ``key``.

        Returns True when this ``owner`` now holds (or already held)
        the lease — the caller should compute the spec and
        :meth:`release_claim` afterwards.  False means another live
        process owns an unexpired lease: the caller should poll
        :meth:`get` for that process's result instead of duplicating
        the BT run.

        The lease is advisory and *fail-open*: a memory-only cache, a
        broken cache file, or any SQLite error grants the claim — at
        worst two processes compute the same spec and the
        ``INSERT OR REPLACE`` of :meth:`put` converges them to one
        row.  Correctness never depends on the lease; only duplicate
        work does.
        """
        if self.path is None:
            return True
        now = time.time()
        try:
            with self._connection() as connection:
                connection.execute("BEGIN IMMEDIATE")
                row = connection.execute(
                    "SELECT owner, expires FROM flights WHERE key = ?",
                    (key,)).fetchone()
                held = (row is not None and row[0] != owner
                        and row[1] > now)
                if not held:
                    connection.execute(
                        "INSERT OR REPLACE INTO flights "
                        "(key, owner, expires) VALUES (?, ?, ?)",
                        (key, owner, now + ttl))
                connection.commit()
        except sqlite3.Error:
            return True
        with self._lock:
            if held:
                self.flights_rejected += 1
            else:
                self.flights_claimed += 1
        return not held

    def release_claim(self, key: str, owner: str) -> None:
        """Drop ``owner``'s flight lease on ``key`` (idempotent)."""
        if self.path is None:
            return
        try:
            with self._connection() as connection:
                connection.execute(
                    "DELETE FROM flights WHERE key = ? AND owner = ?",
                    (key, owner))
                connection.commit()
        except sqlite3.Error:
            pass

    def invalidate(self, key: str) -> bool:
        """Drop one entry, and the text rows naming it, from both
        layers; True when a spec was present."""
        with self._lock:
            present = self._memory.pop(key, None) is not None
            for digest in [digest for digest, (named, _)
                           in self._texts.items() if named == key]:
                del self._texts[digest]
            if self.path is not None:
                with self._connection() as connection:
                    cursor = connection.execute(
                        "DELETE FROM specs WHERE key = ?", (key,))
                    connection.execute("DELETE FROM texts WHERE key = ?",
                                       (key,))
                    connection.commit()
                    present = present or cursor.rowcount > 0
            if present:
                self.invalidations += 1
            return present

    def clear(self) -> int:
        """Drop every entry and text row; returns how many persistent
        spec rows died."""
        with self._lock:
            self._memory.clear()
            self._texts.clear()
            removed = 0
            if self.path is not None:
                with self._connection() as connection:
                    removed = connection.execute(
                        "DELETE FROM specs").rowcount
                    connection.execute("DELETE FROM texts")
                    connection.commit()
            self.invalidations += removed
            return removed

    # -- introspection ---------------------------------------------------

    def entries(self) -> list[dict]:
        """Persistent rows as dictionaries (for ``repro cache ls``)."""
        if self.path is None:
            with self._lock:
                return [{"key": key, "format": FORMAT_VERSION,
                         "created": None, "bytes": None, "layer": MEMORY}
                        for key in self._memory]
        with self._connection() as connection:
            rows = connection.execute(
                "SELECT key, format, created, LENGTH(payload) "
                "FROM specs ORDER BY created").fetchall()
        return [{"key": key, "format": fmt, "created": created,
                 "bytes": size, "layer": DISK}
                for key, fmt, created, size in rows]

    def counters(self) -> dict:
        """A snapshot of the hit/miss accounting, JSON-ready."""
        with self._lock:
            return {
                "lookups": self.lookups,
                "mem_hits": self.mem_hits,
                "disk_hits": self.disk_hits,
                "misses": self.misses,
                "stores": self.stores,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
                "corrupt": self.corrupt,
                "flights_claimed": self.flights_claimed,
                "flights_rejected": self.flights_rejected,
                "memory_entries": len(self._memory),
            }

    def __repr__(self) -> str:
        where = "memory" if self.path is None else str(self.path)
        return (f"SpecCache({where}, {len(self._memory)}/"
                f"{self.memory_size} in LRU)")
