"""The batched, deadline-aware query service over cached specifications.

This is the compute-once/serve-many shape of Theorem 4.1 as a component:
requests carry a program and a query; the service resolves the program
to its content key (:func:`repro.serve.cache.program_key`), obtains the
relational specification from the :class:`~repro.serve.cache.SpecCache`
— computing and storing it on a miss, with *single-flight* so concurrent
requests for the same key trigger exactly one BT run — and answers the
query on the finite object.

The request path
----------------

A program text is first hashed (:func:`repro.serve.cache.text_digest`)
and looked up as a text: when this cache stored or found a spec for
those exact bytes before, its text row names the content key and the
temporal predicates the parse produced.  The spec is then looked up by
that key, as after a parse, and the whole group is answered from it
without parsing.  Only a text miss, or a text row whose spec is gone,
parses (memoised per raw text, :data:`PARSE_MEMO_SIZE` entries),
derives the content key, and looks the spec up by key; the text's row
is then written with the spec, or on its own when the spec was already
cached under another text of the same program.  An ``explain: true``
request still resolves the parsed program, since its proof needs the
model.

Batching
--------

:meth:`QueryService.serve_batch` groups requests by program text, so a
batch of N queries against one TDD looks its text up once (and parses
it at most once), acquires the spec once, and canonicalises each query
through the same ``W``.

Deadlines and graceful degradation
----------------------------------

A request may carry ``deadline`` seconds, one budget that the key-lock
wait, the peer-flight poll and BT's deepening loop (checked before every
pass) all spend.  When it runs out before a period is found — or BT
finds no period at all — the service *degrades* instead of failing: the
query is answered by a windowed BT evaluation whose horizon covers the
query's ground timepoints, and the response is marked ``degraded``
(quantified answers are then relative to the window, not the infinite
model).  A ground timepoint past :data:`DEGRADED_MAX_WINDOW` (or the
database depth) is answered ``ok=False`` instead.

Admission control
-----------------

A service constructed with ``max_predicted_cost`` (the
``--max-predicted-cost`` flag of ``repro serve``) runs the static cost
model (:func:`repro.analysis.static.predicted_cost`) on each program
before acquiring its spec; a program whose budget estimate exceeds the
knob is *refused* up front — the response carries ``ok=False`` and
``refused=True``, mirroring how ``degraded`` marks the windowed
fallback.  The estimate is computed when the program is parsed and kept
in its parse-memo entry, so admission adds static-analysis work once
per parse, not per request.  A text whose spec is already cached is
answered without an estimate: the gate refuses spec *work*, and a
cached spec needs none.  This service never stores a spec for a program
it refused, so the text path cannot answer one (another process sharing
the cache file, with a laxer gate, may store it).  An ``explain: true``
proof does need work, a recorded BT run, so a text hit estimates the
program's cost before it records one and gives no proof past the gate.
"""

from __future__ import annotations

import os
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Sequence, Union

from ..core.queries import (Query, answers as spec_answers,
                            answers_on_model, evaluate, evaluate_on_model,
                            free_variables, max_ground_time, parse_query)
from ..core.spec import RelationalSpec, compute_specification
from ..core.tdd import TDD
from ..engines import QUERY_ENGINES, canonical_window_engine
from ..lang.errors import DeadlineExceeded, EvaluationError, ReproError
from ..obs.telemetry import LatencyHistogram, Span, Telemetry
from ..temporal.bt import bt_evaluate
from .cache import SpecCache, tdd_key, text_digest

#: Spec source tag for a cache miss filled by this service.
COMPUTED = "computed"

#: Smallest horizon of the degraded (windowed) evaluation path.
DEGRADED_WINDOW = 64

#: Deepest horizon of the degraded path (unless the database reaches
#: further): the budget is spent, so its cost must stay bounded.
DEGRADED_MAX_WINDOW = 4096

#: Longest a thread will poll a *peer process's* in-flight spec
#: computation (seconds) before failing open and computing itself.
#: Bounded so a SIGKILLed peer can only stall, never wedge, a request.
PEER_WAIT_LIMIT = 10.0

#: Most concrete rows one ``answers`` request may ``expand`` to.  The
#: rows are counted before any is built; past the cap the request is
#: answered ``ok=False`` (the largest expansion in the cold-spec
#: benchmark corpus is 162 rows).
MAX_EXPANDED_ROWS = 100_000

#: Parsed programs memoised per service (keyed by raw request text).
#: Parsing + content-hashing a large program dwarfs a warm query, so a
#: server answering many requests for the same program must not redo
#: either per request.
PARSE_MEMO_SIZE = 32


@dataclass(frozen=True)
class QueryRequest:
    """One unit of work for the service.

    ``kind`` is ``"ask"`` (closed query, boolean answer) or
    ``"answers"`` (open query, finite answer representation);
    ``deadline`` is a per-request spec-computation budget in seconds;
    ``expand`` additionally enumerates concrete answers up to the given
    timepoint (``answers`` kind only); ``engine`` overrides the
    service's window engine (``"bt"`` or ``"compiled"``) for this
    request — the specification (and so the answer) is identical either
    way, only the compute path differs.  ``explain`` asks the service
    to attach the recorded proof DAG to a true ground ``ask`` answer
    (``proof`` in the response, with ``proof_depth``/``proof_facts``).
    """

    program: str
    query: str
    kind: str = "ask"
    deadline: Union[float, None] = None
    expand: Union[int, None] = None
    engine: Union[str, None] = None
    explain: bool = False

    @classmethod
    def from_dict(cls, data: dict) -> "QueryRequest":
        if not isinstance(data, dict):
            raise ValueError("a request must be a JSON object")
        unknown = set(data) - {"program", "query", "kind", "deadline",
                               "expand", "engine", "explain"}
        if unknown:
            raise ValueError(f"unknown request fields {sorted(unknown)}")
        for name in ("program", "query"):
            if not isinstance(data.get(name), str):
                raise ValueError(f"request field {name!r} must be a "
                                 "string")
            try:
                data[name].encode("utf-8")
            except UnicodeEncodeError:
                # JSON can escape a lone surrogate (\ud800) that no
                # UTF-8 text holds; hashing or keying it would fail.
                raise ValueError(f"request field {name!r} holds a lone "
                                 "surrogate, which is not UTF-8") from None
        engine = data.get("engine")
        if engine is not None and engine not in QUERY_ENGINES:
            raise ValueError(
                f"request field 'engine' must be one of "
                f"{list(QUERY_ENGINES)}, not {engine!r}")
        explain = data.get("explain", False)
        if not isinstance(explain, bool):
            raise ValueError("request field 'explain' must be a boolean")
        deadline = data.get("deadline")
        # NaN, infinities and waits longer than a lock can take fail
        # the last test.
        if deadline is not None and (
                isinstance(deadline, bool)
                or not isinstance(deadline, (int, float))
                or not abs(deadline) <= threading.TIMEOUT_MAX):
            raise ValueError("request field 'deadline' must be a number "
                             f"of seconds up to {threading.TIMEOUT_MAX:g}")
        expand = data.get("expand")
        if expand is not None and (isinstance(expand, bool) or
                                   not isinstance(expand, int)):
            raise ValueError("request field 'expand' must be an integer "
                             "timepoint")
        return cls(program=data["program"], query=data["query"],
                   kind=data.get("kind", "ask"),
                   deadline=deadline, expand=expand,
                   engine=engine,
                   explain=explain)


@dataclass
class QueryResponse:
    """The service's answer to one request.

    ``elapsed_ms`` times the answer phase alone (parse the query,
    evaluate it on the spec); ``duration_ms`` is the request's
    end-to-end service time, including its share of the group's
    program parse and spec acquisition.  ``trace_id`` ties the
    response to the access-log line and the exported spans of the
    same request.
    """

    ok: bool
    kind: str
    answer: Union[bool, dict, None] = None
    degraded: bool = False
    #: True when admission control rejected the program before any spec
    #: work (its predicted cost exceeded ``max_predicted_cost``).
    refused: bool = False
    source: Union[str, None] = None
    key: Union[str, None] = None
    error: Union[str, None] = None
    elapsed_ms: float = 0.0
    duration_ms: float = 0.0
    trace_id: Union[str, None] = None
    #: Recorded proof DAG (``explain: true`` on a true ground ask):
    #: the node/edge lists of the fact's ancestors, plus
    #: ``proof_depth`` and ``proof_facts`` summary counts.
    proof: Union[dict, None] = None

    def to_dict(self) -> dict:
        data = {
            "ok": self.ok,
            "kind": self.kind,
            "answer": self.answer,
            "degraded": self.degraded,
            "refused": self.refused,
            "source": self.source,
            "key": self.key,
            "error": self.error,
            "elapsed_ms": round(self.elapsed_ms, 3),
            "duration_ms": round(self.duration_ms, 3),
            "trace_id": self.trace_id,
        }
        if self.proof is not None:
            data["proof"] = self.proof
        return data


@dataclass
class _ServeCounters:
    requests: int = 0
    batches: int = 0
    batched_requests: int = 0
    max_batch: int = 0
    asks: int = 0
    open_queries: int = 0
    degraded: int = 0
    refused: int = 0
    errors: int = 0
    spec_computes: int = 0
    singleflight_waits: int = 0
    explained: int = 0
    #: ``TDD.from_text`` calls, failed parses included.
    parses: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


class QueryService:
    """Thread-safe query answering over a :class:`SpecCache`."""

    def __init__(self, cache: Union[SpecCache, None] = None,
                 default_deadline: Union[float, None] = None,
                 telemetry: Union[Telemetry, None] = None,
                 engine: str = "bt",
                 max_predicted_cost: Union[float, None] = None,
                 collect=None):
        self.cache = cache if cache is not None else SpecCache()
        self.default_deadline = default_deadline
        #: Optional collection target (:class:`repro.serve.collect.
        #: Collector` locally, :class:`~repro.serve.collect.
        #: CollectorClient` inside a tier worker).  When set, every
        #: spec computation runs with a fresh per-rule
        #: :class:`~repro.obs.metrics.MetricsRegistry` and sampled
        #: provenance recording, and the resulting per-rule deltas
        #: (plus sampled ``derive`` events) flow to it.
        self.collect = collect
        #: Admission-control knob: programs whose static budget estimate
        #: (:func:`repro.analysis.static.predicted_cost`) exceeds this
        #: are refused without any spec work.  None disables the gate.
        self.max_predicted_cost = max_predicted_cost
        #: Default window engine for spec computations and degraded
        #: evaluations; a request's ``engine`` field overrides it.
        #: Validated eagerly so a misconfigured service fails at
        #: construction, not on the first request.
        self.engine = canonical_window_engine(engine)
        # A disabled Telemetry still mints trace ids and durations, so
        # every response carries both even without an export sink.
        self.telemetry = (telemetry if telemetry is not None
                          else Telemetry())
        self.latency = LatencyHistogram()
        self._counters = _ServeCounters()
        self._counters_lock = threading.Lock()
        self._flight_lock = threading.Lock()
        #: key -> [lock, threads holding or waiting on it].
        self._key_locks: dict[str, list] = {}
        self._parse_lock = threading.Lock()
        #: raw program text -> (tdd, content key, predicted cost).
        self._parse_memo: OrderedDict[str, tuple] = OrderedDict()
        #: Identity this process stamps on cross-process flight leases.
        self._flight_owner = f"{os.getpid()}-{id(self):x}"

    def _resolve_program(self, program: str
                         ) -> tuple[TDD, str, Union[float, None]]:
        """Parse + content-key a program text, memoised on the raw text.

        Distinct texts of the same TDD (whitespace, ordering) take
        separate memo slots but still converge on one content key — the
        memo is a parse cache, not the identity of the spec.  With
        ``max_predicted_cost`` set, the entry also carries the
        program's admission estimate (else ``None``).
        """
        with self._parse_lock:
            cached = self._parse_memo.get(program)
            if cached is not None:
                self._parse_memo.move_to_end(program)
                return cached
        with self._counters_lock:
            self._counters.parses += 1
        tdd = TDD.from_text(program)  # may raise ReproError; never memoised
        entry = (tdd, tdd_key(tdd),
                 None if self.max_predicted_cost is None
                 else self._predicted_cost(tdd))
        with self._parse_lock:
            self._parse_memo[program] = entry
            self._parse_memo.move_to_end(program)
            while len(self._parse_memo) > PARSE_MEMO_SIZE:
                self._parse_memo.popitem(last=False)
        return entry

    @staticmethod
    def _predicted_cost(tdd: TDD) -> float:
        """The static budget estimate for a parsed program.

        Uses the structural classifier only (``semantic=False``): the
        admission gate must stay cheap relative to the work it guards,
        and the Theorem 5.2 procedure evaluates test databases.
        """
        from ..analysis.static import classify_program, predicted_cost
        tract = classify_program(tdd.rules, semantic=False)
        return predicted_cost(tdd.rules, list(tdd.database.facts()),
                              period=tract.period)

    # -- spec acquisition (single-flight) --------------------------------

    @contextmanager
    def _single_flight(self, key: str, until: Union[float, None]):
        """Hold ``key``'s lock for the body, waiting until ``until`` at
        most (:class:`DeadlineExceeded` past it).  The lock is dropped
        from ``_key_locks`` when its last holder or waiter leaves."""
        with self._flight_lock:
            entry = self._key_locks.get(key)
            if entry is None:
                entry = self._key_locks[key] = [threading.Lock(), 0]
            entry[1] += 1
        lock = entry[0]
        try:
            timeout = (-1 if until is None
                       else max(until - time.monotonic(), 0.0))
            if not lock.acquire(timeout=timeout):
                with self._counters_lock:
                    self._counters.singleflight_waits += 1
                raise DeadlineExceeded(
                    f"timed out waiting for an in-flight computation of "
                    f"{key[:12]}…")
            try:
                yield
            finally:
                lock.release()
        finally:
            with self._flight_lock:
                entry[1] -= 1
                if not entry[1]:
                    del self._key_locks[key]

    def _request_engine(self, request: Union[QueryRequest, None]) -> str:
        """The window engine a request runs on (canonical name)."""
        if request is not None and request.engine is not None:
            return canonical_window_engine(request.engine)
        return self.engine

    def _instruments(self, trace_id: Union[str, None]) -> tuple:
        """(metrics, provenance) for one instrumented evaluation.

        Both ``None`` when no collection target is configured — the
        engines then skip every instrumentation call site, so serving
        without collection costs exactly what it did before.  The
        provenance store samples every ``derive_sample``-th support
        edge into the request's trace (and only when there *is* a
        request trace to attach them to).
        """
        collect = self.collect
        if collect is None:
            return None, None
        from ..obs.metrics import MetricsRegistry
        metrics = MetricsRegistry()
        provenance = None
        sink = collect.derive_sink(trace_id)
        if sink is not None:
            from ..obs.provenance import ProvenanceStore
            from ..obs.trace import Tracer
            provenance = ProvenanceStore(
                tracer=Tracer(sink), sample=collect.derive_sample)
        return metrics, provenance

    def _observe_compute(self, metrics) -> None:
        """Flush one computation's per-rule deltas to the collector."""
        if metrics is None or self.collect is None:
            return
        records = metrics.to_dict()
        if records:
            self.collect.observe_rules(records)

    def _compute(self, tdd: TDD, until: Union[float, None],
                 engine: Union[str, None] = None,
                 trace_id: Union[str, None] = None) -> RelationalSpec:
        metrics, provenance = self._instruments(trace_id)
        try:
            return compute_specification(
                tdd.rules, tdd.database,
                engine=engine if engine is not None else self.engine,
                metrics=metrics, provenance=provenance, deadline=until)
        finally:
            self._observe_compute(metrics)

    def specification(self, tdd: TDD,
                      deadline: Union[float, None] = None,
                      key: Union[str, None] = None,
                      parent: Union[Span, None] = None,
                      engine: Union[str, None] = None,
                      digest: Union[str, None] = None
                      ) -> tuple[RelationalSpec, str]:
        """The spec for a TDD, via the cache; returns (spec, source).

        ``source`` is ``"memory"``, ``"disk"``, or ``"computed"``.
        ``deadline`` is a budget in seconds from entry, spent by the
        key-lock wait, the peer-flight poll and BT's deepening passes
        alike.  Raises :class:`DeadlineExceeded` when it runs out first,
        and :class:`~repro.lang.errors.EvaluationError` when BT finds
        no period within its maximum window.  ``key`` lets callers
        that already know the content key skip re-deriving it;
        ``parent`` is an optional telemetry span the cache-lookup and
        spec-compute child spans hang off; ``engine`` overrides the
        service's window engine for a miss (cache keys are engine-free:
        the spec is the same object whichever engine built it).
        ``digest`` is the :func:`~repro.serve.cache.text_digest` of the
        text ``tdd`` was parsed from: that text's row is stored with the
        spec, so the text's next request skips the parse.
        """
        until = None if deadline is None else time.monotonic() + deadline
        if key is None:
            key = tdd_key(tdd)
        spec, source = self._acquire(tdd, until, key, parent, engine,
                                     digest)
        if digest is not None and source != COMPUTED:
            self.cache.put_text(digest, key, tdd.temporal_preds)
        return spec, source

    def _acquire(self, tdd: TDD, until: Union[float, None], key: str,
                 parent: Union[Span, None], engine: Union[str, None],
                 digest: Union[str, None]) -> tuple[RelationalSpec, str]:
        """:meth:`specification`'s cache lookup and single-flight fill,
        spending the budget up to the ``until`` instant."""
        spec, source = self.cache.get_with_source(key, parent=parent)
        if spec is not None:
            return spec, source
        with self._single_flight(key, until):
            # Double-check: another thread may have filled the cache
            # while this one waited on the key lock.
            spec, source = self.cache.get_with_source(key,
                                                      parent=parent)
            if spec is not None:
                with self._counters_lock:
                    self._counters.singleflight_waits += 1
                return spec, source
            # Cross-process single-flight: with a disk-backed cache,
            # claim the key's flight lease before computing.  A denied
            # claim means a peer process is already running BT for
            # this key — poll for its stored result instead of
            # duplicating the work, but only for a bounded window
            # (fail open and compute if the peer dies or stalls).
            claimed = self.cache.try_claim(key, self._flight_owner)
            if not claimed:
                wait_deadline = time.monotonic() + PEER_WAIT_LIMIT
                if until is not None:
                    wait_deadline = min(wait_deadline, until)
                while not claimed:
                    spec, source = self.cache.get_with_source(
                        key, parent=parent)
                    if spec is not None:
                        with self._counters_lock:
                            self._counters.singleflight_waits += 1
                        return spec, source
                    if time.monotonic() >= wait_deadline:
                        break
                    time.sleep(0.05)
                    claimed = self.cache.try_claim(key,
                                                   self._flight_owner)
            try:
                span = (None if parent is None
                        else parent.child("spec.compute", key=key[:12]))
                try:
                    spec = self._compute(
                        tdd, until, engine=engine,
                        trace_id=(None if parent is None
                                  else parent.trace_id))
                except EvaluationError as exc:
                    if span is not None:
                        span.set_attribute("error", str(exc))
                    raise
                finally:
                    if span is not None:
                        span.end()
                with self._counters_lock:
                    self._counters.spec_computes += 1
                self.cache.put(key, spec, digest=digest,
                               temporal=tdd.temporal_preds)
                return spec, COMPUTED
            finally:
                if claimed:
                    self.cache.release_claim(key, self._flight_owner)

    # -- degraded (windowed) evaluation ----------------------------------

    def _degraded_answer(self, tdd: TDD, query: Query,
                         request: QueryRequest, reason: EvaluationError,
                         trace_id: Union[str, None] = None
                         ) -> Union[bool, dict]:
        depth = max_ground_time(query)
        limit = max(DEGRADED_MAX_WINDOW, tdd.database.c)
        if depth > limit:
            raise EvaluationError(
                f"no specification ({reason}), and timepoint {depth} lies "
                f"past the degraded window [0..{limit}]")
        bound = max(DEGRADED_WINDOW, depth, tdd.database.c)
        metrics, provenance = self._instruments(trace_id)
        try:
            result = bt_evaluate(tdd.rules, tdd.database, window=bound,
                                 engine=self._request_engine(request),
                                 metrics=metrics, provenance=provenance)
        finally:
            self._observe_compute(metrics)
        if request.kind == "ask":
            return evaluate_on_model(query, result)
        concrete = answers_on_model(query, result, time_bound=bound)
        sorts = free_variables(query)
        return {
            "variables": [[name, sorts[name]] for name in sorted(sorts)],
            "concrete": concrete,
            "window": bound,
        }

    # -- request handling -------------------------------------------------

    def _explain_proof(self, program: str, tdd: Union[TDD, None],
                       query: Query) -> Union[dict, None]:
        """Recorded proof payload for a true ground ask (``explain``).

        Evaluates the TDD with provenance recording on (cached on the
        TDD, so repeat explains of one program pay BT once) and returns
        the fact's ancestor sub-DAG plus depth/size summary counts.  A
        group answered from its text row passes ``tdd=None``, and the
        parse memo supplies the TDD of ``program``; admission control
        applies to that recorded run as to a spec computation.
        Beyond-horizon facts fold through the period first, keeping the
        proof bounded by the window rather than the query timepoint.
        Returns ``None`` when no proof applies (non-atomic query, a
        program the admission gate refuses, or the recorded run cannot
        reach the fact).
        """
        from ..core.queries import AtomQ
        from ..lang.atoms import Fact
        if not isinstance(query, AtomQ) or not query.atom.is_ground:
            return None
        try:
            if tdd is None:
                tdd, _, cost = self._resolve_program(program)
                if cost is not None and cost > self.max_predicted_cost:
                    return None
            provenance = tdd.provenance()
            result = tdd.evaluate()
        except ReproError:
            return None
        fact = query.atom.to_fact()
        if (fact.time is not None and fact.time > result.horizon
                and result.period is not None):
            fact = Fact(fact.pred, result.period.fold(fact.time),
                        fact.args)
        derivation = provenance.derivation(fact, database=tdd.database)
        if derivation is None:
            return None
        dag = provenance.to_json_dict(root=fact)
        return {
            "fact": str(fact),
            "proof_depth": derivation.depth,
            "proof_facts": len(dag["nodes"]),
            "dag": dag,
        }

    def _answer_payload(self, query: Query, spec: RelationalSpec,
                        request: QueryRequest) -> dict:
        result = spec_answers(query, spec)
        names = [name for name, _ in result.variables]
        payload = {
            "variables": [list(pair) for pair in result.variables],
            "canonical": [
                {name: sub[name] for name in names} for sub in result
            ],
            "infinite": result.is_infinite,
            "b": result.b,
            "p": result.p,
            "rewrites": str(result.rewrites),
        }
        if request.expand is not None:
            rows = result.expansion_size(request.expand)
            if rows > MAX_EXPANDED_ROWS:
                raise ReproError(
                    f"expand={request.expand} would list {rows} answers, "
                    f"more than MAX_EXPANDED_ROWS={MAX_EXPANDED_ROWS}")
            payload["expanded"] = list(result.expand(request.expand))
        return payload

    def _answer(self, request: QueryRequest,
                spec: Union[RelationalSpec, None],
                source: Union[str, None], key: str,
                temporal: frozenset[str], tdd: Union[TDD, None],
                spec_error: Union[EvaluationError, None],
                parent: Union[Span, None] = None) -> QueryResponse:
        """Answer one request on its group's spec.  ``tdd`` is None on
        the text path, where the spec is always present; without a spec
        (``spec_error``), the parsed ``tdd`` answers degraded."""
        span = self.telemetry.span("answer", parent=parent,
                                   kind=request.kind)
        degraded = False
        try:
            if request.kind not in ("ask", "answers"):
                raise ReproError(
                    f"unknown request kind {request.kind!r} "
                    "(expected 'ask' or 'answers')")
            query = parse_query(request.query, temporal)
            if request.kind == "ask" and free_variables(query):
                raise ReproError(
                    "'ask' needs a closed query; use kind='answers' "
                    "for open queries")
            if spec is None:
                # Spec unavailable in budget (or no period): windowed
                # fallback, marked degraded.
                degraded = True
                answer = self._degraded_answer(tdd, query, request,
                                               spec_error,
                                               trace_id=span.trace_id)
            elif request.kind == "ask":
                answer = evaluate(query, spec)
            else:
                answer = self._answer_payload(query, spec, request)
            proof = None
            if (request.explain and request.kind == "ask"
                    and answer is True and not degraded):
                proof = self._explain_proof(request.program, tdd,
                                            query)
        except ReproError as exc:
            with self._counters_lock:
                self._counters.errors += 1
            span.set_attribute("error", str(exc))
            return QueryResponse(
                ok=False, kind=request.kind, key=key, error=str(exc),
                elapsed_ms=span.end(),
                trace_id=span.trace_id)
        with self._counters_lock:
            if request.kind == "ask":
                self._counters.asks += 1
            else:
                self._counters.open_queries += 1
            if degraded:
                self._counters.degraded += 1
            if proof is not None:
                self._counters.explained += 1
        span.set_attribute("degraded", degraded)
        return QueryResponse(
            ok=True, kind=request.kind, answer=answer, degraded=degraded,
            source=None if degraded else source, key=key,
            elapsed_ms=span.end(),
            trace_id=span.trace_id, proof=proof)

    def serve(self, request: QueryRequest,
              parent: Union[Span, None] = None) -> QueryResponse:
        """Answer one request (sugar for a singleton batch)."""
        return self.serve_batch([request], parent=parent)[0]

    def serve_batch(self, requests: Sequence[QueryRequest],
                    parent: Union[Span, None] = None
                    ) -> list[QueryResponse]:
        """Answer a batch; order of responses matches the requests.

        Requests are grouped by program text: each distinct text is
        looked up once, parsed at most once, and its specification
        acquired once for the whole group.

        ``parent`` is the telemetry span the batch runs under — the
        HTTP front-end passes its per-request root span so the whole
        serving path shares one trace id.  Without one, the service
        opens its own ``serve.batch`` root, so direct (embedded) use
        is traced identically.  Every response is stamped with the
        trace id and its end-to-end ``duration_ms`` (which includes
        the group's text lookup, parse and spec acquisition),
        and each duration feeds the service's latency histogram —
        exactly one observation per request, so the histogram count
        reconciles with the ``requests`` counter.  An unexpected
        exception answers its group's unanswered requests ``ok=False``
        (``internal error: ...``); the other groups still answer.
        """
        with self._counters_lock:
            self._counters.requests += len(requests)
            self._counters.batches += 1
            self._counters.batched_requests += len(requests)
            self._counters.max_batch = max(self._counters.max_batch,
                                           len(requests))
        root = parent
        own_root = root is None
        if own_root:
            root = self.telemetry.root("serve.batch",
                                       requests=len(requests))
        responses: list[Union[QueryResponse, None]] = [None] * len(requests)
        groups: dict[str, list[int]] = {}
        for index, request in enumerate(requests):
            groups.setdefault(request.program, []).append(index)
        for indexes in groups.values():
            started = time.monotonic()
            try:
                self._serve_group(requests, indexes, responses, root,
                                  started)
            except Exception as exc:
                self._fail_group(requests, indexes, responses, root,
                                 exc, started)
        if own_root:
            root.end()
        return [r for r in responses if r is not None]

    def _serve_group(self, requests: Sequence[QueryRequest],
                     indexes: list[int],
                     responses: list[Union[QueryResponse, None]],
                     root: Span, started: float) -> None:
        """Answer one program group of a batch into ``responses``:
        from the spec its text row names, else by parsing.  A text row
        whose spec is gone (evicted from a memory-only cache, or its
        row deleted) takes the parse path too, whose keyed lookup then
        counts a second miss."""
        digest = text_digest(requests[indexes[0]].program)
        named = self.cache.get_text(digest)
        if named is not None:
            key, temporal = named
            spec, source = self.cache.get_with_source(key, parent=root)
            if spec is not None:
                self._answer_group(requests, indexes, responses, root,
                                   started, spec, source, key, temporal)
                return
        self._serve_parsed(requests, indexes, responses, root, started,
                           digest)

    def _serve_parsed(self, requests: Sequence[QueryRequest],
                      indexes: list[int],
                      responses: list[Union[QueryResponse, None]],
                      root: Span, started: float, digest: str) -> None:
        """The parse path of :meth:`_serve_group`: parse (memoised),
        admit, acquire the spec by content key, answer."""
        program = requests[indexes[0]].program
        parse_span = self.telemetry.span("parse", parent=root)
        try:
            tdd, key, cost = self._resolve_program(program)
        except ReproError as exc:
            parse_span.set_attribute("error", str(exc))
            parse_span.end()
            with self._counters_lock:
                self._counters.errors += len(indexes)
            self._reject_group(requests, indexes, responses, root,
                               started, f"program parse error: {exc}")
            return
        parse_span.set_attribute("key", key[:12])
        parse_span.end()
        if cost is not None and cost > self.max_predicted_cost:
            with self._counters_lock:
                self._counters.refused += len(indexes)
            self._reject_group(
                requests, indexes, responses, root, started,
                f"admission control: predicted evaluation cost "
                f"{cost:.1f} exceeds max_predicted_cost="
                f"{self.max_predicted_cost:g}", key=key, refused=True)
            return
        deadlines = [requests[i].deadline for i in indexes]
        if any(d is None for d in deadlines):
            deadline = self.default_deadline
        else:
            deadline = max(d for d in deadlines if d is not None)
        # A group shares one spec computation; when any request in
        # it names an engine, that engine runs it (the spec itself
        # is engine-independent, so sharing stays sound).
        overrides = [requests[i].engine for i in indexes
                     if requests[i].engine is not None]
        engine = (canonical_window_engine(overrides[0])
                  if overrides else self.engine)
        spec: Union[RelationalSpec, None] = None
        source: Union[str, None] = None
        spec_error: Union[EvaluationError, None] = None
        try:
            spec, source = self.specification(tdd, deadline, key=key,
                                              parent=root, engine=engine,
                                              digest=digest)
        except EvaluationError as exc:
            spec_error = exc
        self._answer_group(requests, indexes, responses, root, started,
                           spec, source, key, tdd.temporal_preds, tdd,
                           spec_error)

    def _answer_group(self, requests: Sequence[QueryRequest],
                      indexes: list[int],
                      responses: list[Union[QueryResponse, None]],
                      root: Span, started: float,
                      spec: Union[RelationalSpec, None],
                      source: Union[str, None], key: str,
                      temporal: frozenset[str],
                      tdd: Union[TDD, None] = None,
                      spec_error: Union[EvaluationError, None] = None
                      ) -> None:
        """Answer each request of a group; its ``duration_ms`` adds the
        group's lookup, parse and spec acquisition to its answer."""
        overhead_ms = (time.monotonic() - started) * 1e3
        for index in indexes:
            response = self._answer(requests[index], spec, source, key,
                                    temporal, tdd, spec_error,
                                    parent=root)
            response.duration_ms = overhead_ms + response.elapsed_ms
            response.trace_id = root.trace_id
            self.latency.observe(response.duration_ms)
            responses[index] = response

    def _reject_group(self, requests: Sequence[QueryRequest],
                      indexes: list[int],
                      responses: list[Union[QueryResponse, None]],
                      root: Span, started: float, error: str,
                      key: Union[str, None] = None,
                      refused: bool = False) -> None:
        """Answer a whole group ``ok=False`` before any spec work: a
        parse error, or an admission refusal."""
        elapsed_ms = (time.monotonic() - started) * 1e3
        for index in indexes:
            responses[index] = QueryResponse(
                ok=False, kind=requests[index].kind, key=key,
                refused=refused, error=error,
                duration_ms=elapsed_ms, trace_id=root.trace_id)
            self.latency.observe(elapsed_ms)

    def _fail_group(self, requests: Sequence[QueryRequest],
                    indexes: list[int],
                    responses: list[Union[QueryResponse, None]],
                    root: Span, exc: Exception, started: float) -> None:
        """Answer a group's unanswered requests after an unexpected
        exception: ``ok=False``, counted as errors and observed once
        each, so the fault costs no dropped connection or retry.  The
        traceback goes to standard error."""
        import traceback  # only on this path, off the import closure
        traceback.print_exception(exc)
        error = f"internal error: {type(exc).__name__}: {exc}"
        elapsed_ms = (time.monotonic() - started) * 1e3
        pending = [index for index in indexes if responses[index] is None]
        with self._counters_lock:
            self._counters.errors += len(pending)
        for index in pending:
            responses[index] = QueryResponse(
                ok=False, kind=requests[index].kind, error=error,
                duration_ms=elapsed_ms, trace_id=root.trace_id)
            self.latency.observe(elapsed_ms)

    # -- stats -------------------------------------------------------------

    def counters(self) -> dict:
        """Service-side counters (requests, batches, degradations)."""
        with self._counters_lock:
            return self._counters.to_dict()

    def stats_dict(self) -> dict:
        """Everything observable: serve counters, cache counters, and
        the request-latency distribution (buckets + p50/p95/p99)."""
        return {"serve": self.counters(),
                "cache": self.cache.counters(),
                "latency": self.latency.to_dict()}

    def attach_stats(self, stats) -> None:
        """Land the counters in an :class:`repro.obs.EvalStats` so they
        reach ``--stats`` output and benchreport columns."""
        stats.extra["serve"] = self.counters()
        stats.extra["cache"] = self.cache.counters()
        stats.extra["latency"] = self.latency.to_dict()

    def prometheus_text(self) -> str:
        """The ``GET /metrics`` payload: Prometheus text exposition.

        Counter values come from the same snapshots ``/stats`` serves,
        so ``repro_requests_total`` always equals
        ``stats["serve"]["requests"]`` and the histogram count equals
        the number of served requests — the reconciliation the CI
        smoke job and the telemetry concurrency test assert.
        """
        return render_prometheus(self.counters(),
                                 self.cache.counters(),
                                 self.latency)


def render_prometheus(serve: dict, cache: dict, latency,
                      extra_lines: Sequence[str] = ()) -> str:
    """Prometheus text exposition from counter snapshots.

    Shared by the single-process server (one service's counters) and
    the multi-process front-end (the same counters aggregated across
    workers, plus ``repro_worker_*`` lines via ``extra_lines``).
    ``latency`` is anything with ``prometheus_lines(name)`` — a
    :class:`~repro.obs.telemetry.LatencyHistogram`, merged or not.
    """
    from .. import __version__
    from ..obs.trace import TRACE_SCHEMA
    lines = [
        "# HELP repro_info Build information.",
        "# TYPE repro_info gauge",
        f'repro_info{{version="{__version__}",'
        f'trace_schema="{TRACE_SCHEMA}"}} 1',
    ]

    def counter(name: str, help_text: str, value: int,
                labels: str = "") -> None:
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} counter")
        lines.append(f"{name}{labels} {value}")

    counter("repro_requests_total",
            "Query requests received.", serve["requests"])
    counter("repro_batches_total",
            "Request batches served.", serve["batches"])
    counter("repro_degraded_total",
            "Responses answered by the windowed fallback.",
            serve["degraded"])
    counter("repro_refused_total",
            "Requests refused by cost-based admission control.",
            serve["refused"])
    counter("repro_errors_total",
            "Requests that failed (parse/kind/query errors).",
            serve["errors"])
    counter("repro_spec_computes_total",
            "BT runs that produced a specification.",
            serve["spec_computes"])
    counter("repro_singleflight_waits_total",
            "Requests that waited on an in-flight computation.",
            serve["singleflight_waits"])
    counter("repro_explained_total",
            "Responses carrying a recorded proof DAG "
            "(explain: true).", serve["explained"])
    counter("repro_program_parses_total",
            "Program texts parsed (a text with a cached spec is "
            "answered without one).", serve["parses"])
    counter("repro_cache_lookups_total",
            "Spec cache lookups.", cache["lookups"])
    lines.append("# HELP repro_cache_hits_total "
                 "Spec cache hits by layer.")
    lines.append("# TYPE repro_cache_hits_total counter")
    lines.append('repro_cache_hits_total{layer="memory"} '
                 f'{cache["mem_hits"]}')
    lines.append('repro_cache_hits_total{layer="disk"} '
                 f'{cache["disk_hits"]}')
    counter("repro_cache_misses_total",
            "Spec cache misses.", cache["misses"])
    counter("repro_cache_corrupt_total",
            "Corrupt/version-skewed cache rows discarded.",
            cache["corrupt"])
    counter("repro_cache_evictions_total",
            "LRU evictions from the in-memory layer.",
            cache["evictions"])
    lines.append("# HELP repro_cache_memory_entries "
                 "Entries currently in the in-memory LRU.")
    lines.append("# TYPE repro_cache_memory_entries gauge")
    lines.append("repro_cache_memory_entries "
                 f'{cache["memory_entries"]}')
    lines.extend(latency.prometheus_lines(
        "repro_request_duration_seconds"))
    lines.extend(extra_lines)
    return "\n".join(lines) + "\n"
