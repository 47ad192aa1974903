"""QueryService semantics: batching, deadlines, degradation, HTTP.

Complements the differential suite (answer correctness) and the
concurrency suite (thread safety) with the service's behavioural
contract: batch grouping, per-request error isolation, deadline-driven
degradation, stats threading, and the JSON-over-HTTP protocol.
"""

from __future__ import annotations

import time

import pytest

import repro.serve
import repro.temporal.bt as bt
from repro.core.spec import compute_specification
from repro.core.tdd import TDD
from repro.lang.errors import DeadlineExceeded, EvaluationError
from repro.lang.pretty import format_program
from repro.obs import EvalStats
from repro.serve import QueryRequest, QueryService, SpecCache
from repro.serve.service import (DEGRADED_MAX_WINDOW, MAX_EXPANDED_ROWS,
                                 PARSE_MEMO_SIZE)
from repro.workloads import coprime_cycles_database, coprime_cycles_program

EVEN = "even(T+2) :- even(T).\neven(0).\n"
#: Period 385; deadline-free BT deepens through six windows to find it.
COPRIME = format_program(coprime_cycles_program([5, 7, 11]),
                         coprime_cycles_database([5, 7, 11]))
TRAVEL = """
plane(T+7, X) :- plane(T, X), resort(X), offseason(T).
plane(T+2, X) :- plane(T, X), resort(X), winter(T).
plane(T+1, X) :- plane(T, X), resort(X), holiday(T).
offseason(T+365) :- offseason(T).
winter(T+365) :- winter(T).
holiday(T+365) :- holiday(T).

plane(12, hunter).
resort(hunter).
winter(0..90).
offseason(91..364).
holiday(5).
holiday(12).
"""


@pytest.fixture()
def service():
    return QueryService(cache=SpecCache())


def _count_estimates(monkeypatch) -> list:
    """Wrap the admission estimate: record each program it costs."""
    import repro.analysis.static as static
    calls: list = []
    original = static.predicted_cost

    def wrapped(rules, *args, **kwargs):
        calls.append(rules)
        return original(rules, *args, **kwargs)

    monkeypatch.setattr(static, "predicted_cost", wrapped)
    return calls


def _record_windows(monkeypatch, sleep: float = 0.0) -> list:
    """Wrap BT's window evaluation: record each horizon, then sleep."""
    horizons: list = []
    original = bt.evaluate_window

    def wrapped(rules, database, horizon, *args, **kwargs):
        horizons.append(horizon)
        store = original(rules, database, horizon, *args, **kwargs)
        time.sleep(sleep)
        return store

    monkeypatch.setattr(bt, "evaluate_window", wrapped)
    return horizons


class TestBatching:
    def test_batch_groups_by_program(self, service):
        requests = (
            [QueryRequest(program=EVEN, query=f"even({t})")
             for t in (0, 1, 2, 3)]
            + [QueryRequest(program=TRAVEL,
                            query="plane(12, hunter)")]
        )
        responses = service.serve_batch(requests)
        assert [r.answer for r in responses] == [True, False, True,
                                                 False, True]
        # Two distinct programs -> exactly two BT runs for five
        # requests, and the spec is canonicalised through W once per
        # group (all requests share the group's spec object).
        assert service.counters()["spec_computes"] == 2
        assert service.counters()["max_batch"] == 5

    def test_response_order_matches_requests(self, service):
        requests = [
            QueryRequest(program=TRAVEL, query="plane(12, hunter)"),
            QueryRequest(program=EVEN, query="even(1)"),
            QueryRequest(program=TRAVEL, query="plane(13, hunter)"),
            QueryRequest(program=EVEN, query="even(2)"),
        ]
        answers = [r.answer for r in service.serve_batch(requests)]
        assert answers == [True, False, True, True]

    def test_bad_request_does_not_poison_the_batch(self, service):
        requests = [
            QueryRequest(program=EVEN, query="even(0)"),
            QueryRequest(program=EVEN, query="even(("),
            QueryRequest(program=EVEN, query="even(X)"),  # open 'ask'
            QueryRequest(program=EVEN, query="even(2)",
                         kind="mystery"),
            QueryRequest(program="p(T+1) :- p(T", query="p(0)"),
            QueryRequest(program=EVEN, query="even(2)"),
        ]
        responses = service.serve_batch(requests)
        assert [r.ok for r in responses] == [True, False, False, False,
                                             False, True]
        assert "closed query" in responses[2].error
        assert "unknown request kind" in responses[3].error
        assert "parse error" in responses[4].error
        assert responses[5].answer is True
        assert service.counters()["errors"] == 4


class TestDeadlines:
    def test_zero_deadline_degrades_but_still_answers(self, service):
        response = service.serve(QueryRequest(
            program=EVEN, query="even(40)", deadline=0.0))
        assert response.ok and response.degraded
        assert response.answer is True
        assert service.counters()["degraded"] == 1
        # Beyond the degraded window the spec path would still answer;
        # degraded open answers are explicitly windowed instead.
        open_response = service.serve(QueryRequest(
            program=EVEN, query="even(X)", kind="answers",
            deadline=0.0))
        assert open_response.degraded
        window = open_response.answer["window"]
        assert {sub["X"] for sub in open_response.answer["concrete"]} \
            == set(range(0, window + 1, 2))

    def test_degraded_window_covers_ground_timepoints(self, service):
        response = service.serve(QueryRequest(
            program=EVEN, query="even(500)", deadline=0.0))
        assert response.ok and response.degraded
        assert response.answer is True

    def test_cache_hit_beats_the_deadline(self, service):
        service.serve(QueryRequest(program=EVEN, query="even(0)"))
        response = service.serve(QueryRequest(
            program=EVEN, query="even(10)", deadline=0.0))
        assert response.ok and not response.degraded
        assert response.answer is True

    def test_default_deadline_applies(self):
        strict = QueryService(cache=SpecCache(),
                              default_deadline=0.0)
        response = strict.serve(QueryRequest(program=EVEN,
                                             query="even(4)"))
        assert response.degraded and response.answer is True

    def test_generous_deadline_runs_the_deadline_free_passes(
            self, service, monkeypatch):
        horizons = _record_windows(monkeypatch)
        response = service.serve(QueryRequest(
            program=COPRIME, query="tick0(385)", deadline=60.0))
        assert response.ok and not response.degraded
        assert response.answer is True
        # One deepening loop: a budget never restarts BT from its
        # first window.
        assert horizons == [48, 96, 192, 384, 768, 1536]

    def test_deadline_stops_deepening_between_passes(self, service,
                                                     monkeypatch):
        horizons = _record_windows(monkeypatch, sleep=0.2)
        tdd = TDD.from_text(COPRIME)
        with pytest.raises(DeadlineExceeded, match="window 96"):
            compute_specification(tdd.rules, tdd.database,
                                  deadline=time.monotonic() + 0.05)
        assert horizons == [48]
        del horizons[:]
        response = service.serve(QueryRequest(
            program=COPRIME, query="tick0(385)", deadline=0.05))
        assert response.ok and response.degraded
        assert response.answer is True
        # BT stopped after its first pass; the fallback then evaluated
        # one window reaching the query's timepoint.
        assert horizons == [48, 385]

    def test_degraded_window_is_capped(self, service):
        start = time.monotonic()
        response = service.serve(QueryRequest(
            program=EVEN, query="even(1000000000000)", deadline=0.0))
        assert time.monotonic() - start < 1.0
        assert not response.ok and not response.degraded
        assert f"degraded window [0..{DEGRADED_MAX_WINDOW}]" \
            in response.error
        assert service.counters()["errors"] == 1

    def test_degraded_cap_never_below_database_depth(self, service):
        deep = DEGRADED_MAX_WINDOW + 100
        response = service.serve(QueryRequest(
            program=f"even(T+2) :- even(T).\neven({deep}).\n",
            query=f"even({deep})", deadline=0.0))
        assert response.ok and response.degraded
        assert response.answer is True

    def test_degraded_answer_counts_no_spec_compute(self, service):
        response = service.serve(QueryRequest(
            program=EVEN, query="even(10)", deadline=0.0))
        assert response.ok and response.degraded
        counters = service.counters()
        assert counters["degraded"] == 1
        assert counters["spec_computes"] == 0

    def test_deadline_exceeded_is_an_evaluation_error(self):
        assert issubclass(DeadlineExceeded, EvaluationError)
        assert repro.serve.DeadlineExceeded is DeadlineExceeded


class TestSingleFlightTables:
    def test_key_locks_leave_with_their_requests(self, service):
        for i in range(200):
            service.serve(QueryRequest(program=f"{EVEN}mark(m{i}).\n",
                                       query="even(4)"))
        assert service.counters()["spec_computes"] == 200
        assert service._key_locks == {}

    def test_per_program_tables_stay_bounded(self):
        service = QueryService(cache=SpecCache(),
                               max_predicted_cost=1e12)
        for i in range(200):
            service.serve(QueryRequest(program=f"{EVEN}mark(m{i}).\n",
                                       query="even(4)"))
        sizes = {name: len(value) for name, value in vars(service).items()
                 if isinstance(value, dict)}
        assert sizes
        assert max(sizes.values()) <= PARSE_MEMO_SIZE, sizes


class TestAnswerPayloads:
    def test_canonical_answer_payload(self, service):
        response = service.serve(QueryRequest(
            program=EVEN, query="even(X)", kind="answers", expand=8))
        payload = response.answer
        assert payload["variables"] == [["X", "time"]]
        assert payload["canonical"] == [{"X": 0}]
        assert payload["infinite"] is True
        assert (payload["b"], payload["p"]) == (0, 2)
        assert payload["expanded"] == [{"X": 0}, {"X": 2}, {"X": 4},
                                       {"X": 6}, {"X": 8}]

    def test_expansion_at_the_cap_answers(self, service):
        # even(X) has one row per even timepoint: bound 2(n-1) -> n rows.
        response = service.serve(QueryRequest(
            program=EVEN, query="even(X)", kind="answers",
            expand=2 * (MAX_EXPANDED_ROWS - 1)))
        assert response.ok
        assert len(response.answer["expanded"]) == MAX_EXPANDED_ROWS

    def test_expansion_past_the_cap_is_refused(self, service):
        response = service.serve(QueryRequest(
            program=EVEN, query="even(X)", kind="answers",
            expand=2 * MAX_EXPANDED_ROWS))
        assert not response.ok
        assert "MAX_EXPANDED_ROWS" in response.error
        assert service.counters()["errors"] == 1

    def test_astronomical_expansion_is_refused_at_once(self, service):
        started = time.perf_counter()
        response = service.serve(QueryRequest(
            program=EVEN, query="even(X)", kind="answers",
            expand=10**30))
        assert not response.ok and "MAX_EXPANDED_ROWS" in response.error
        assert time.perf_counter() - started < 1.0

    @pytest.mark.parametrize("bound", [-1, 0, 11, 12, 400, 1200])
    def test_expansion_size_counts_expand(self, bound):
        from repro.core.queries import answers, parse_query
        tdd = TDD.from_text(TRAVEL)
        spec = compute_specification(tdd.rules, tdd.database)
        for text in ("plane(X, Y)", "plane(X, hunter) and holiday(Z)"):
            result = answers(parse_query(text, tdd.temporal_preds), spec)
            assert result.expansion_size(bound) \
                == len(list(result.expand(bound)))

    def test_stats_attach_to_evalstats(self, service):
        service.serve(QueryRequest(program=EVEN, query="even(0)"))
        stats = EvalStats()
        service.attach_stats(stats)
        assert stats.extra["serve"]["requests"] == 1
        assert stats.extra["cache"]["stores"] == 1
        rendered = stats.summary()
        assert "serve" in rendered and "cache" in rendered


class TestRequestValidation:
    def test_from_dict_round_trip(self):
        request = QueryRequest.from_dict(
            {"program": EVEN, "query": "even(0)", "kind": "answers",
             "deadline": 1.5, "expand": 9})
        assert request.kind == "answers"
        assert request.deadline == 1.5 and request.expand == 9

    @pytest.mark.parametrize("bad", [
        "just a string",
        {"query": "even(0)"},
        {"program": EVEN},
        {"program": 7, "query": "even(0)"},
        {"program": EVEN, "query": "even(0)", "surprise": 1},
        {"program": EVEN, "query": "even(0)", "engine": "warp"},
        {"program": EVEN, "query": "even(0)", "engine": 3},
        *(pytest.param({"program": EVEN, "query": "even(X)", name: value},
                       id=f"{name}-{label}")
          for name, label, value in [
              ("deadline", "str", "5"), ("deadline", "bool", True),
              ("deadline", "nan", float("nan")),
              ("deadline", "inf", float("inf")),
              ("deadline", "huge", 10 ** 400),
              ("expand", "str", "x"), ("expand", "bool", True),
              ("expand", "float", 2.5)]),
        # Lone surrogates: JSON escapes them, UTF-8 cannot hold them.
        pytest.param({"program": "% \ud800\n" + EVEN, "query": "even(0)"},
                     id="program-surrogate"),
        pytest.param({"program": EVEN, "query": 'even("\udfff")'},
                     id="query-surrogate"),
    ])
    def test_from_dict_rejects(self, bad):
        with pytest.raises(ValueError):
            QueryRequest.from_dict(bad)

    def test_from_dict_accepts_engine(self):
        request = QueryRequest.from_dict(
            {"program": EVEN, "query": "even(0)",
             "engine": "compiled"})
        assert request.engine == "compiled"


class TestEngineSelection:
    def test_compiled_service_answers_identically(self):
        bt = QueryService(cache=SpecCache())
        compiled = QueryService(cache=SpecCache(), engine="compiled")
        for query in ("even(0)", "even(1)", "even(40)"):
            a = bt.serve(QueryRequest(program=EVEN, query=query))
            b = compiled.serve(QueryRequest(program=EVEN, query=query))
            assert (a.ok, a.answer) == (b.ok, b.answer)

    def test_per_request_override_and_warm_hits(self, service):
        cold = service.serve(QueryRequest(program=EVEN, query="even(4)",
                                          engine="compiled"))
        assert cold.ok and cold.answer is True
        assert cold.source == "computed"
        # Cache keys are engine-free: a bt request now hits the spec
        # the compiled engine built (and vice versa), zero rounds run.
        warm = service.serve(QueryRequest(program=EVEN,
                                          query="even(6)"))
        assert warm.ok and warm.answer is True
        assert warm.source == "memory"
        assert service.counters()["spec_computes"] == 1

    def test_unknown_service_engine_rejected_eagerly(self):
        with pytest.raises(EvaluationError, match="unknown engine"):
            QueryService(cache=SpecCache(), engine="warp")

    def test_degraded_path_honours_request_engine(self):
        strict = QueryService(cache=SpecCache(), default_deadline=0.0)
        response = strict.serve(QueryRequest(
            program=EVEN, query="even(8)", engine="compiled"))
        assert response.ok and response.degraded
        assert response.answer is True


class TestHTTPServer:
    @pytest.fixture()
    def endpoint(self, serve_endpoint):
        return serve_endpoint()

    def _post(self, point, payload, path="/query"):
        return point.post_json(payload, path=path)

    def _get(self, point, path):
        return point.get_json(path)

    def test_query_batch_round_trip(self, endpoint):
        status, data = self._post(endpoint, {"requests": [
            {"program": EVEN, "query": "even(4)"},
            {"program": EVEN, "query": "even(X)", "kind": "answers",
             "expand": 4},
        ]})
        assert status == 200
        first, second = data["responses"]
        assert first["ok"] and first["answer"] is True
        assert second["answer"]["expanded"] == [{"X": 0}, {"X": 2},
                                                {"X": 4}]

    def test_single_request_body(self, endpoint):
        status, data = self._post(
            endpoint, {"program": EVEN, "query": "even(3)"})
        assert status == 200
        assert data["responses"][0]["answer"] is False

    def test_health_and_stats(self, endpoint):
        status, health = self._get(endpoint, "/healthz")
        assert status == 200 and health["ok"] is True
        self._post(endpoint, {"program": EVEN, "query": "even(0)"})
        status, stats = self._get(endpoint, "/stats")
        assert status == 200
        assert stats["serve"]["requests"] == 1
        assert stats["cache"]["lookups"] >= 1
        assert stats["latency"]["count"] == 1

    def test_malformed_body_is_400(self, endpoint):
        status, data = self._post(endpoint, "{not json")
        assert status == 400 and "error" in data
        status, data = self._post(endpoint, {"requests": []})
        assert status == 400
        status, data = self._post(
            endpoint, {"requests": [{"program": EVEN}]})
        assert status == 400

    def test_unknown_paths_are_404(self, endpoint):
        assert self._get(endpoint, "/nope")[0] == 404
        assert self._post(endpoint, {}, path="/nope")[0] == 404


class TestAdmissionControl:
    """The --max-predicted-cost gate: refuse before any spec work."""

    def test_costly_program_is_refused(self):
        strict = QueryService(cache=SpecCache(), max_predicted_cost=1.0)
        response = strict.serve(QueryRequest(program=TRAVEL,
                                             query="plane(12, hunter)"))
        assert response.ok is False
        assert response.refused is True
        assert response.degraded is False
        assert "admission control" in response.error
        assert "max_predicted_cost=1" in response.error
        assert response.key is not None
        assert response.trace_id is not None
        # Refusal happened before spec acquisition: no BT run, and the
        # whole batch of counters reconciles.
        counters = strict.counters()
        assert counters["refused"] == 1
        assert counters["spec_computes"] == 0
        assert counters["errors"] == 0
        assert strict.latency.to_dict()["count"] == 1

    def test_generous_budget_still_answers(self):
        generous = QueryService(cache=SpecCache(),
                                max_predicted_cost=1e12)
        response = generous.serve(QueryRequest(program=EVEN,
                                               query="even(4)"))
        assert response.ok is True
        assert response.refused is False
        assert response.answer is True
        assert generous.counters()["refused"] == 0

    def test_gate_disabled_by_default(self, service):
        assert service.max_predicted_cost is None
        response = service.serve(QueryRequest(program=EVEN,
                                              query="even(4)"))
        assert response.refused is False
        assert "refused" in response.to_dict()

    def test_whole_group_refused_and_cost_memoised(self, monkeypatch):
        estimates = _count_estimates(monkeypatch)
        strict = QueryService(cache=SpecCache(), max_predicted_cost=1.0)
        requests = [QueryRequest(program=TRAVEL,
                                 query=f"plane({t}, hunter)")
                    for t in (12, 13, 14)]
        responses = strict.serve_batch(requests)
        assert all(r.refused for r in responses)
        assert strict.counters()["refused"] == 3
        # One program, one estimate, kept with its parse.
        assert len(estimates) == 1
        strict.serve_batch(requests)
        assert strict.counters()["refused"] == 6
        assert len(estimates) == 1

    def test_admitted_program_is_estimated_once(self, monkeypatch):
        estimates = _count_estimates(monkeypatch)
        generous = QueryService(cache=SpecCache(),
                                max_predicted_cost=1e12)
        for t in range(5):
            response = generous.serve(QueryRequest(
                program=EVEN, query=f"even({2 * t})"))
            assert response.ok and response.answer is True
        assert len(estimates) == 1

    def test_refused_counter_in_metrics_and_stats(self):
        strict = QueryService(cache=SpecCache(), max_predicted_cost=1.0)
        strict.serve(QueryRequest(program=TRAVEL,
                                  query="plane(12, hunter)"))
        assert "repro_refused_total 1" in strict.prometheus_text()
        assert strict.stats_dict()["serve"]["refused"] == 1


class TestTextPath:
    """A program text whose spec is cached is answered from the spec its
    text row names, without a parse."""

    def test_warm_requests_do_not_parse(self, service):
        service.serve(QueryRequest(program=EVEN, query="even(0)"))
        assert service.counters()["parses"] == 1
        for t in range(5):
            response = service.serve(QueryRequest(program=EVEN,
                                                  query=f"even({t})"))
            assert response.ok and response.answer is (t % 2 == 0)
            assert response.source == "memory"
        assert service.counters()["parses"] == 1
        # A failed parse counts as well.
        service.serve(QueryRequest(program="p(T+1 :- broken",
                                   query="p(0)"))
        assert service.counters()["parses"] == 2
        assert "repro_program_parses_total 2" in service.prometheus_text()

    def test_new_service_on_the_same_file_does_not_parse(self, tmp_path):
        path = tmp_path / "specs.sqlite"
        QueryService(cache=SpecCache(path)).serve(
            QueryRequest(program=EVEN, query="even(0)"))
        fresh = QueryService(cache=SpecCache(path))
        ask, open_query = fresh.serve_batch([
            QueryRequest(program=EVEN, query="even(4)"),
            QueryRequest(program=EVEN, query="even(X)", kind="answers",
                         expand=4)])
        assert ask.answer is True
        assert open_query.answer["expanded"] == [{"X": 0}, {"X": 2},
                                                 {"X": 4}]
        assert [ask.source, open_query.source] == ["disk", "disk"]
        assert fresh.counters()["parses"] == 0
        cache = fresh.cache.counters()
        assert (cache["lookups"], cache["disk_hits"]) == (1, 1)

    def test_other_texts_of_a_program_parse_once(self, service):
        first = service.serve(QueryRequest(program=EVEN, query="even(0)"))
        spaced = "\n\n" + EVEN.replace("\n", "\n\n")
        for t in range(3):
            response = service.serve(QueryRequest(program=spaced,
                                                  query=f"even({t})"))
            assert response.key == first.key
            assert response.source == "memory"
        assert service.counters()["parses"] == 2
        assert service.counters()["spec_computes"] == 1

    def test_text_hit_records_a_lookup_span_and_no_parse(self):
        from repro.obs import ListSink, Telemetry, Tracer
        sink = ListSink()
        service = QueryService(cache=SpecCache(),
                               telemetry=Telemetry(Tracer(sink)))
        cold = service.serve(QueryRequest(program=EVEN, query="even(0)"))
        sink.events.clear()
        service.serve(QueryRequest(program=EVEN, query="even(2)"))
        names = [e["name"] for e in sink.events]
        assert "parse" not in names
        (lookup,) = [e for e in sink.events if e["name"] == "cache.lookup"]
        assert lookup["attrs"] == {"key": cold.key[:12],
                                   "outcome": "memory"}

    def test_cached_text_skips_the_admission_estimate(self, monkeypatch,
                                                      tmp_path):
        """The gate refuses spec work; a cached spec needs none."""
        path = tmp_path / "specs.sqlite"
        QueryService(cache=SpecCache(path)).serve(
            QueryRequest(program=TRAVEL, query="plane(12, hunter)"))
        estimates = _count_estimates(monkeypatch)
        strict = QueryService(cache=SpecCache(path),
                              max_predicted_cost=1.0)
        response = strict.serve(QueryRequest(program=TRAVEL,
                                             query="plane(12, hunter)"))
        assert response.ok and response.answer is True
        assert not response.refused and estimates == []
        # Another text of the program parses, so the gate applies.
        response = strict.serve(QueryRequest(program=TRAVEL + "\n",
                                             query="plane(12, hunter)"))
        assert response.refused and len(estimates) == 1

    def test_text_hit_explains_nothing_past_the_gate(self, monkeypatch,
                                                     tmp_path):
        """A proof needs a recorded BT run: that is spec work, and the
        gate refuses it, though the cached spec still answers."""
        path = tmp_path / "specs.sqlite"
        QueryService(cache=SpecCache(path)).serve(
            QueryRequest(program=TRAVEL, query="plane(12, hunter)"))
        runs = []
        evaluate = TDD.evaluate
        monkeypatch.setattr(TDD, "evaluate", lambda tdd, *args, **kwargs:
                            runs.append(tdd) or evaluate(tdd, *args,
                                                         **kwargs))
        explain = QueryRequest(program=TRAVEL, query="plane(12, hunter)",
                               explain=True)
        strict = QueryService(cache=SpecCache(path),
                              max_predicted_cost=1.0)
        response = strict.serve(explain)
        assert response.ok and response.answer is True
        assert not response.refused and response.proof is None
        assert runs == [] and strict.counters()["explained"] == 0
        response = QueryService(cache=SpecCache(path)).serve(explain)
        assert response.proof is not None and runs


class TestInternalErrors:
    """An unexpected exception costs its program group one ``ok:
    false`` answer per request — never the batch or the connection."""

    @pytest.fixture()
    def poisoned(self, monkeypatch):
        import repro.serve.service as service_module
        original = service_module.evaluate

        def evaluate(query, spec):
            if "hunter" in str(query):
                raise RuntimeError("poisoned query")
            return original(query, spec)

        monkeypatch.setattr(service_module, "evaluate", evaluate)

    def test_other_groups_still_answer(self, service, poisoned):
        responses = service.serve_batch([
            QueryRequest(program=EVEN, query="even(0)"),
            QueryRequest(program=TRAVEL, query="plane(12, hunter)"),
            QueryRequest(program=EVEN, query="even(2)"),
        ])
        assert [r.ok for r in responses] == [True, False, True]
        assert responses[1].error \
            == "internal error: RuntimeError: poisoned query"
        assert [r.answer for r in responses[::2]] == [True, True]
        counters = service.counters()
        assert counters["errors"] == 1
        assert service.latency.count == counters["requests"] == 3

    def test_post_gets_a_200(self, serve_endpoint, poisoned):
        endpoint = serve_endpoint()
        status, data = endpoint.post_json({"requests": [
            {"program": TRAVEL, "query": "plane(12, hunter)"},
            {"program": EVEN, "query": "even(4)"},
        ]})
        assert status == 200
        bad, good = data["responses"]
        assert bad["ok"] is False and "internal error" in bad["error"]
        assert good["ok"] is True and good["answer"] is True


class TestMalformedInput:
    """Malformed programs, queries and request fields are answered —
    ``ok: false`` inside the batch, or a 400 — never a dropped
    connection."""

    SUPERSCRIPT = "p(²).\n"  # '²' passes str.isdigit, not int()

    @pytest.fixture()
    def endpoint(self, serve_endpoint):
        return serve_endpoint()

    def test_non_decimal_digit_program_answers_its_batch(self, service):
        bad, good = service.serve_batch([
            QueryRequest(program=self.SUPERSCRIPT, query="p(0)"),
            QueryRequest(program=EVEN, query="even(4)"),
        ])
        assert not bad.ok and "program parse error" in bad.error
        assert "column 3" in bad.error
        assert good.ok and good.answer is True

    def test_non_decimal_digit_program_over_http(self, endpoint):
        status, data = endpoint.post_json({"requests": [
            {"program": self.SUPERSCRIPT, "query": "p(0)"},
            {"program": EVEN, "query": "even(4)"},
        ]})
        assert status == 200
        bad, good = data["responses"]
        assert bad["ok"] is False and "parse error" in bad["error"]
        assert good["ok"] is True and good["answer"] is True

    @pytest.mark.parametrize("field", [{"deadline": "5"},
                                       {"expand": "x"}],
                             ids=["deadline", "expand"])
    def test_mistyped_number_is_400(self, endpoint, field):
        status, data = endpoint.post_json({"requests": [
            {"program": EVEN, "query": "even(X)", "kind": "answers",
             **field}]})
        assert status == 400 and next(iter(field)) in data["error"]

    @pytest.mark.parametrize("query", [
        "not " * 3000 + "even(4)",
        "(" * 3000 + "even(4)" + ")" * 3000,
    ], ids=["not", "parentheses"])
    def test_deeply_nested_query_is_a_parse_error(self, service, query):
        response = service.serve(QueryRequest(program=EVEN, query=query))
        assert not response.ok and "nests deeper" in response.error

    def test_nesting_within_the_bound_still_answers(self, service):
        from repro.core.queries import MAX_QUERY_DEPTH
        depth = MAX_QUERY_DEPTH
        response = service.serve(QueryRequest(
            program=EVEN,
            query="(" * (depth // 2) + "not " * (depth // 2) + "even(4)"
                  + ")" * (depth // 2)))
        assert response.ok and response.answer is True

    def test_deeply_nested_body_is_400(self, endpoint):
        status, data = endpoint.post_json("[" * 100_000 + "]" * 100_000)
        assert status == 400 and "nests" in data["error"]
