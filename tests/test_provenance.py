"""Recorded why-provenance: proof DAGs, why/why-not, lineage tracing.

The subsystem's acceptance contract, exercised end to end:

* a 100-program differential corpus whose every recorded proof passes
  the independent soundness check on BOTH the generic semi-naive engine
  and the compiled engine;
* the provenance-off path allocates nothing (the same discipline — and
  the same test shape — as the disabled-metrics path in
  ``test_metrics.py``);
* ``repro why`` / ``repro whynot`` CLI behaviour: engines, formats,
  period folding, exit codes;
* ``explain: true`` proof payloads on the query service, with the
  ``repro_explained_total`` counter;
* schema-4 ``derive`` trace events, sampled.
"""

from __future__ import annotations

import gc
import io
import json

import pytest
from hypothesis import given

from test_differential import DIFF_SETTINGS, HORIZON, programs

from repro.cli import main
from repro.core import TDD
from repro.datalog.compiled import compiled_fixpoint
from repro.lang.atoms import Fact
from repro.obs import (EvalStats, ListSink, ProvenanceStore, Tracer,
                       render_proof, why_not)
from repro.obs.provenance import Support
from repro.serve import QueryRequest, QueryService, SpecCache
from repro.temporal import TemporalDatabase, fixpoint

EVEN = "even(T+2) :- even(T).\neven(0).\n"

ONCALL = """\
oncall(T+7, X) :- oncall(T, X), eng(X).
pageable(T, X) :- oncall(T, X), not leave(T, X).
oncall(1, ada).
eng(ada).
leave(8, ada).
"""


@pytest.fixture()
def even_file(tmp_path):
    path = tmp_path / "even.tdd"
    path.write_text(EVEN)
    return str(path)


@pytest.fixture()
def oncall_file(tmp_path):
    path = tmp_path / "oncall.tdd"
    path.write_text(ONCALL)
    return str(path)


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# The acceptance corpus: every recorded proof verifies, on both engines
# ---------------------------------------------------------------------------

class TestDifferentialCorpus:
    @DIFF_SETTINGS
    @given(programs())
    def test_every_recorded_proof_verifies_on_both_engines(self,
                                                           program):
        rules, facts = program
        db = TemporalDatabase(facts)
        models = []
        for run in (fixpoint, compiled_fixpoint):
            store = ProvenanceStore()
            model = run(rules, db, HORIZON, provenance=store)
            models.append(model)
            for fact in model.facts():
                if fact in db:
                    continue
                # Recording is complete: every non-extensional model
                # fact carries a support edge ...
                assert fact in store, fact
                # ... and the recorded proof passes the independent
                # soundness check.
                assert store.verify(fact, db, model) == [], fact
                derivation = store.derivation(fact, database=db)
                assert derivation is not None
                assert derivation.kind == "rule"
                assert derivation.depth >= 2
        # Recording never changed what either engine computed.
        assert models[0] == models[1]

    @DIFF_SETTINGS
    @given(programs())
    def test_recording_never_changes_the_model(self, program):
        rules, facts = program
        db = TemporalDatabase(facts)
        reference = fixpoint(rules, db, HORIZON)
        recorded = fixpoint(rules, db, HORIZON,
                            provenance=ProvenanceStore())
        assert recorded == reference


# ---------------------------------------------------------------------------
# Zero overhead when disabled (mirrors the disabled-metrics test)
# ---------------------------------------------------------------------------

class TestDisabledPath:
    def test_disabled_run_allocates_no_provenance_objects(self):
        tdd = TDD.from_text(EVEN)
        rules, db = tdd.rules, tdd.database
        fixpoint(rules, db, HORIZON)                     # warm caches
        compiled_fixpoint(rules, db, HORIZON)
        gc.collect()
        before = sum(isinstance(obj, (ProvenanceStore, Support))
                     for obj in gc.get_objects())
        fixpoint(rules, db, HORIZON, stats=EvalStats())
        compiled_fixpoint(rules, db, HORIZON, stats=EvalStats())
        gc.collect()
        after = sum(isinstance(obj, (ProvenanceStore, Support))
                    for obj in gc.get_objects())
        assert after == before


# ---------------------------------------------------------------------------
# Store semantics
# ---------------------------------------------------------------------------

class TestStore:
    def test_first_support_wins(self):
        tdd = TDD.from_text(EVEN)
        (rule,) = [r for r in tdd.rules if not r.is_fact]
        store = ProvenanceStore()
        head = Fact("even", 2, ())
        store.record(rule, head, [Fact("even", 0, ())], round_no=1)
        store.record(rule, head, [Fact("even", 4, ())], round_no=9)
        (support,) = store.supports(head)
        assert support.round == 1
        assert store.fact(support.body[0]) == Fact("even", 0, ())

    def test_all_supports_keeps_extras(self):
        tdd = TDD.from_text(EVEN)
        (rule,) = [r for r in tdd.rules if not r.is_fact]
        store = ProvenanceStore(all_supports=True)
        head = Fact("even", 2, ())
        store.record(rule, head, [Fact("even", 0, ())], round_no=1)
        store.record(rule, head, [Fact("even", 4, ())], round_no=9)
        assert [s.round for s in store.supports(head)] == [1, 9]

    def test_reset_clears_edges_but_keeps_configuration(self):
        tdd = TDD.from_text(EVEN)
        (rule,) = [r for r in tdd.rules if not r.is_fact]
        store = ProvenanceStore(sample=3)
        store.record(rule, Fact("even", 2, ()), [Fact("even", 0, ())])
        store.reset()
        assert len(store) == 0
        assert Fact("even", 2, ()) not in store
        assert store.sample == 3

    def test_derivation_unknown_fact_is_none(self):
        tdd = TDD.from_text(EVEN)
        store = ProvenanceStore()
        tdd.evaluate(provenance=store)
        assert store.derivation(Fact("even", 5, ()),
                                database=tdd.database) is None

    def test_verify_flags_a_premise_outside_the_model(self):
        tdd = TDD.from_text(EVEN)
        (rule,) = [r for r in tdd.rules if not r.is_fact]
        store = ProvenanceStore()
        model = fixpoint(tdd.rules, tdd.database, HORIZON)
        # A forged edge: even(6) "derived" from even(5), which is
        # neither in the model nor extensional.
        store.record(rule, Fact("even", 6, ()), [Fact("even", 5, ())])
        problems = store.verify(Fact("even", 6, ()), tdd.database,
                                model)
        assert problems
        assert any("even(5)" in p for p in problems)


# ---------------------------------------------------------------------------
# Statistics export
# ---------------------------------------------------------------------------

class TestStats:
    def test_stats_extra_provenance_invariants(self):
        tdd = TDD.from_text(EVEN)
        stats = EvalStats()
        fixpoint(tdd.rules, tdd.database, HORIZON, stats=stats,
                 provenance=ProvenanceStore())
        block = stats.extra["provenance"]
        assert block["derived"] <= block["facts"]
        assert block["edges"] >= block["derived"]
        assert 1 <= block["depth"] <= block["facts"]
        assert sum(block["supports"].values()) == block["derived"]
        assert block["derived"] == stats.facts_derived

    @DIFF_SETTINGS
    @given(programs())
    def test_stats_invariants_hold_on_the_corpus(self, program):
        rules, facts = program
        stats = EvalStats()
        store = ProvenanceStore(all_supports=True)
        compiled_fixpoint(rules, TemporalDatabase(facts), HORIZON,
                          stats=stats, provenance=store)
        block = stats.extra["provenance"]
        assert block["derived"] <= block["facts"]
        assert block["edges"] >= block["derived"]
        assert block["depth"] <= block["facts"]
        assert sum(block["supports"].values()) == block["derived"]


# ---------------------------------------------------------------------------
# Exports: JSON, DOT, rendered proof trees
# ---------------------------------------------------------------------------

class TestExports:
    def _store(self):
        tdd = TDD.from_text(ONCALL)
        return tdd, tdd.provenance()

    def test_json_ids_are_dense_and_edges_resolve(self):
        _, store = self._store()
        data = store.to_json_dict()
        ids = [n["id"] for n in data["nodes"]]
        assert ids == list(range(len(ids)))
        kinds = {n["id"]: n["kind"] for n in data["nodes"]}
        for edge in data["edges"]:
            assert kinds[edge["head"]] == "derived"
            for ref in edge["body"] + edge["neg"]:
                assert ref in kinds

    def test_json_root_restricts_to_ancestors(self):
        _, store = self._store()
        root = Fact("pageable", 1, ("ada",))
        data = store.to_json_dict(root=root)
        assert data["nodes"][0]["pred"] == "pageable"
        assert data["nodes"][0]["time"] == 1
        full = store.to_json_dict()
        assert len(data["nodes"]) < len(full["nodes"])
        parsed = json.loads(store.to_json(root=root))
        assert parsed == data

    def test_dot_marks_negative_edges_dashed(self):
        _, store = self._store()
        dot = store.to_dot(root=Fact("pageable", 1, ("ada",)))
        assert dot.startswith("digraph provenance {")
        assert dot.rstrip().endswith("}")
        assert "style=dashed" in dot       # the `not leave` premise

    def test_render_proof_carries_file_line_spans(self):
        tdd, store = self._store()
        derivation = store.derivation(Fact("pageable", 15, ("ada",)),
                                      database=tdd.database)
        text = render_proof(derivation, path="oncall.tdd")
        assert "pageable(15, ada)   [by  oncall.tdd:2" in text
        assert "not leave(15, ada)   [closed world]" in text
        assert "oncall(1, ada)   [database]" in text

    def test_explain_prefers_the_recorded_proof(self):
        tdd, store = self._store()
        fact = Fact("pageable", 15, ("ada",))
        recorded = store.derivation(fact, database=tdd.database)
        explained = tdd.explain(fact)
        assert explained.kind == "rule"
        assert explained.fact == fact
        assert explained.depth == recorded.depth


# ---------------------------------------------------------------------------
# why_not: nearest failed firings
# ---------------------------------------------------------------------------

class TestWhyNot:
    def _model(self, text):
        tdd = TDD.from_text(text)
        return tdd, tdd.evaluate().store

    def test_blocked_by_a_negative_premise(self):
        tdd, store = self._model(ONCALL)
        report = why_not(tdd.rules, store,
                         Fact("pageable", 8, ("ada",)))
        assert not report.in_model
        (firing,) = [f for f in report.firings
                     if f.reason == "blocked by"]
        assert firing.failed == "leave(8, ada)"
        assert firing.satisfied == [Fact("oncall", 8, ("ada",))]
        rendered = report.render("oncall.tdd")
        assert "blocked by: leave(8, ada)" in rendered
        assert "oncall.tdd:2" in rendered

    def test_no_matching_fact_names_the_missing_premise(self):
        tdd, store = self._model(EVEN)
        report = why_not(tdd.rules, store, Fact("even", 5, ()))
        (firing,) = report.firings
        assert firing.reason == "no matching fact for"
        assert firing.failed == "even(3)"
        assert firing.to_dict()["line"] == 1

    def test_fact_in_model_is_called_out(self):
        tdd, store = self._model(EVEN)
        report = why_not(tdd.rules, store, Fact("even", 4, ()))
        assert report.in_model
        assert "IS in the model" in report.note
        assert report.firings == []

    def test_underivable_predicate_is_called_out(self):
        tdd, store = self._model(EVEN)
        report = why_not(tdd.rules, store, Fact("ghost", 0, ()))
        assert not report.in_model
        assert "no rule derives predicate 'ghost'" in report.note

    def test_head_offsets_excluding_the_timepoint(self):
        tdd, store = self._model(EVEN)
        report = why_not(tdd.rules, store, Fact("even", 1, ()))
        assert not report.in_model
        assert report.firings == []
        assert "head time offsets exclude" in report.note

    def test_to_dict_round_trips_through_json(self):
        tdd, store = self._model(ONCALL)
        report = why_not(tdd.rules, store,
                         Fact("pageable", 8, ("ada",)))
        data = json.loads(json.dumps(report.to_dict()))
        assert data["in_model"] is False
        assert data["firings"][0]["reason"] == "blocked by"


# ---------------------------------------------------------------------------
# derive trace events (schema 4), sampled
# ---------------------------------------------------------------------------

class TestDeriveTraceEvents:
    def test_payload_and_sampling(self):
        tdd = TDD.from_text(EVEN)
        (rule,) = [r for r in tdd.rules if not r.is_fact]
        sink = ListSink()
        store = ProvenanceStore(tracer=Tracer(sink), sample=2)
        for t in (2, 4, 6, 8):
            store.record(rule, Fact("even", t, ()),
                         [Fact("even", t - 2, ())], round_no=t // 2)
        events = [e for e in sink.events if e["event"] == "derive"]
        assert len(events) == 2          # every 2nd recorded edge
        event = events[0]
        assert event["pred"] == "even"
        assert event["time"] == 4
        assert event["args"] == []
        assert event["rule"] == "even(T+2) :- even(T)."
        assert event["line"] == 1
        assert event["round"] == 2
        assert event["body"] == [["even", 2, []]]
        assert event["neg"] == []

    def test_duplicate_supports_are_not_traced(self):
        tdd = TDD.from_text(EVEN)
        (rule,) = [r for r in tdd.rules if not r.is_fact]
        sink = ListSink()
        store = ProvenanceStore(tracer=Tracer(sink), sample=1)
        head = Fact("even", 2, ())
        store.record(rule, head, [Fact("even", 0, ())])
        store.record(rule, head, [Fact("even", 0, ())])
        assert len([e for e in sink.events
                    if e["event"] == "derive"]) == 1


# ---------------------------------------------------------------------------
# CLI: repro why / repro whynot
# ---------------------------------------------------------------------------

class TestCLIWhy:
    def test_text_proof_with_file_line_spans(self, even_file):
        code, out = run_cli(["why", even_file, "even(4)"])
        assert code == 0
        assert f"even(4)   [by  {even_file}:1" in out
        assert "even(0)   [database]" in out

    def test_engines_agree_verbatim(self, even_file):
        outputs = {
            engine: run_cli(["why", even_file, "even(4)",
                             "--engine", engine])
            for engine in ("seminaive", "compiled")
        }
        assert outputs["seminaive"] == outputs["compiled"]
        assert outputs["seminaive"][0] == 0

    def test_deep_fact_folds_through_the_period(self, even_file):
        code, out = run_cli(["why", even_file, "even(1000000)"])
        assert code == 0
        assert ("even(1000000) folds to even(0) through the period "
                "(b=0, p=2)") in out

    def test_absent_fact_exits_1_and_points_at_whynot(self, even_file):
        code, out = run_cli(["why", even_file, "even(5)"])
        assert code == 1
        assert "repro whynot" in out

    def test_json_format(self, even_file):
        code, out = run_cli(["why", even_file, "even(4)",
                             "--format", "json"])
        assert code == 0
        data = json.loads(out)
        assert [n["id"] for n in data["nodes"]] == [0, 1, 2]
        assert data["nodes"][0]["pred"] == "even"
        assert len(data["edges"]) == 2

    def test_dot_format(self, even_file):
        code, out = run_cli(["why", even_file, "even(4)",
                             "--format", "dot"])
        assert code == 0
        assert out.startswith("digraph provenance {")

    def test_negation_program_proof_on_both_engines(self, oncall_file):
        for engine in ("seminaive", "compiled"):
            code, out = run_cli(["why", oncall_file,
                                 "pageable(15, ada)",
                                 "--engine", engine])
            assert code == 0, engine
            assert "[closed world]" in out


class TestCLIWhyNot:
    def test_blocked_negative_premise(self, oncall_file):
        code, out = run_cli(["whynot", oncall_file,
                             "pageable(8, ada)"])
        assert code == 0
        assert "blocked by: leave(8, ada)" in out
        assert f"{oncall_file}:2" in out

    def test_missing_premise(self, even_file):
        code, out = run_cli(["whynot", even_file, "even(5)"])
        assert code == 0
        assert "no matching fact for: even(3)" in out

    def test_fact_in_model_exits_1(self, even_file):
        code, out = run_cli(["whynot", even_file, "even(4)"])
        assert code == 1
        assert "IS in the model" in out

    def test_json_format(self, oncall_file):
        code, out = run_cli(["whynot", oncall_file,
                             "pageable(8, ada)", "--format", "json"])
        assert code == 0
        data = json.loads(out)
        assert data["in_model"] is False
        assert data["firings"][0]["reason"] == "blocked by"


class TestCLITraceProvenance:
    def test_requires_a_trace_sink(self, even_file):
        code, _ = run_cli(["why", even_file, "even(4)",
                           "--trace-provenance", "2"])
        assert code == 2

    def test_run_emits_derive_events(self, even_file, tmp_path):
        trace = tmp_path / "run.jsonl"
        code, _ = run_cli(["run", even_file, "--trace", str(trace),
                           "--trace-provenance", "1"])
        assert code == 0
        events = [json.loads(line)
                  for line in trace.read_text().splitlines()]
        derives = [e for e in events if e["event"] == "derive"]
        assert derives
        assert all(e["pred"] == "even" and e["rule"] for e in derives)

    def test_sampling_thins_the_event_stream(self, even_file,
                                             tmp_path):
        def count(sample):
            trace = tmp_path / f"s{sample}.jsonl"
            run_cli(["run", even_file, "--trace", str(trace),
                     "--trace-provenance", str(sample)])
            return sum(1 for line in trace.read_text().splitlines()
                       if json.loads(line)["event"] == "derive")

        assert 0 < count(4) < count(1)


# ---------------------------------------------------------------------------
# Serve: explain: true
# ---------------------------------------------------------------------------

class TestServeExplain:
    def test_true_ground_ask_carries_a_proof(self):
        service = QueryService(cache=SpecCache())
        (response,) = service.serve_batch(
            [QueryRequest(program=EVEN, query="even(4)",
                          explain=True)])
        assert response.answer is True
        proof = response.proof
        assert proof["fact"] == "even(4)"
        assert proof["proof_depth"] == 3
        assert proof["proof_facts"] == len(proof["dag"]["nodes"]) == 3
        assert "proof" in response.to_dict()
        assert service.counters()["explained"] == 1
        assert "repro_explained_total 1" in service.prometheus_text()

    def test_unexplained_and_false_answers_carry_none(self):
        service = QueryService(cache=SpecCache())
        plain, false = service.serve_batch([
            QueryRequest(program=EVEN, query="even(4)"),
            QueryRequest(program=EVEN, query="even(5)",
                         explain=True),
        ])
        assert plain.proof is None and "proof" not in plain.to_dict()
        assert false.answer is False
        assert false.proof is None and "proof" not in false.to_dict()
        assert service.counters()["explained"] == 0
        assert "repro_explained_total 0" in service.prometheus_text()

    def test_deep_ask_folds_before_explaining(self):
        service = QueryService(cache=SpecCache())
        (response,) = service.serve_batch(
            [QueryRequest(program=EVEN, query="even(1000000)",
                          explain=True)])
        assert response.answer is True
        assert response.proof["fact"] == "even(0)"
        assert response.proof["proof_depth"] == 1

    def test_text_hit_still_explains(self, tmp_path):
        """A text answered from its text row resolves the parsed
        program for the proof only, and a repeat explain reuses it."""
        path = tmp_path / "specs.sqlite"
        QueryService(cache=SpecCache(path)).serve(
            QueryRequest(program=EVEN, query="even(0)"))
        service = QueryService(cache=SpecCache(path))
        first, second = (service.serve(QueryRequest(
            program=EVEN, query="even(4)", explain=True))
            for _ in range(2))
        assert [first.source, second.source] == ["disk", "memory"]
        assert first.proof == second.proof
        assert first.proof["fact"] == "even(4)"
        assert first.proof["proof_depth"] == 3
        counters = service.counters()
        assert counters["explained"] == 2
        assert counters["parses"] == 1
        assert counters["spec_computes"] == 0

    def test_from_dict_accepts_and_validates_explain(self):
        request = QueryRequest.from_dict(
            {"program": EVEN, "query": "even(4)", "explain": True})
        assert request.explain is True
        with pytest.raises(ValueError, match="must be a boolean"):
            QueryRequest.from_dict({"program": EVEN,
                                    "query": "even(4)",
                                    "explain": "yes"})
