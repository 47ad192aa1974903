"""Tests for the observability layer (repro.obs)."""

from __future__ import annotations

import io
import json

import pytest

from repro.core.magic import magic_ask
from repro.datalog import naive_evaluate, seminaive_evaluate
from repro.lang import parse_program
from repro.lang.atoms import Fact
from repro.obs import (EvalStats, JsonLinesSink, ListSink, Tracer,
                       phase_timer)
from repro.temporal import (TemporalDatabase, bt_evaluate, bt_verbatim,
                            fixpoint, topdown_ask)
from repro.temporal.incremental import IncrementalModel
from repro.temporal.interval_engine import interval_fixpoint


# ---------------------------------------------------------------------------
# EvalStats
# ---------------------------------------------------------------------------

class TestEvalStats:
    def test_record_round(self):
        stats = EvalStats()
        stats.record_round(derived=3, delta=5)
        stats.record_round(derived=0)
        assert stats.rounds == 2
        assert stats.facts_per_round == [3, 0]
        assert stats.delta_sizes == [5]
        assert stats.facts_derived == 3

    def test_merge_adds_counters_and_concatenates_series(self):
        a = EvalStats(engine="seminaive", rounds=2,
                      facts_per_round=[4, 1], delta_sizes=[4, 5],
                      join_probes=10, index_hits=3, index_misses=1,
                      facts_derived=5, horizon=8)
        b = EvalStats(engine="bt", rounds=1, facts_per_round=[2],
                      delta_sizes=[2], join_probes=4, index_hits=2,
                      index_misses=2, facts_derived=2, horizon=12,
                      period=(3, 4))
        a.merge(b)
        assert a.engine == "bt"
        assert a.rounds == 3
        assert a.facts_per_round == [4, 1, 2]
        assert a.delta_sizes == [4, 5, 2]
        assert a.join_probes == 14
        assert a.index_hits == 5 and a.index_misses == 3
        assert a.facts_derived == 7
        assert a.horizon == 12
        assert a.period == (3, 4)

    def test_merge_keeps_own_fields_when_other_empty(self):
        a = EvalStats(engine="magic", horizon=9, period=(1, 2))
        a.merge(EvalStats())
        assert a.engine == "magic"
        assert a.horizon == 9
        assert a.period == (1, 2)

    def test_merge_accumulates_phases(self):
        a = EvalStats(phase_seconds={"evaluate": 1.0})
        b = EvalStats(phase_seconds={"evaluate": 0.5, "rewrite": 0.25})
        a.merge(b)
        assert a.phase_seconds == {"evaluate": 1.5, "rewrite": 0.25}

    def test_json_round_trip(self):
        stats = EvalStats(engine="bt", rounds=3,
                          facts_per_round=[5, 2, 0],
                          delta_sizes=[5, 5, 2], join_probes=17,
                          index_hits=9, index_misses=4,
                          facts_derived=7, horizon=21, period=(11, 365),
                          phase_seconds={"evaluate": 0.125},
                          extra={"initial_facts": 6})
        loaded = EvalStats.from_json(stats.to_json())
        assert loaded == stats
        # The JSON form is plain (period is a list, not a tuple).
        data = json.loads(stats.to_json())
        assert data["period"] == [11, 365]

    def test_from_dict_tolerates_missing_fields(self):
        stats = EvalStats.from_dict({"engine": "interval"})
        assert stats.engine == "interval"
        assert stats.rounds == 0
        assert stats.period is None

    def test_summary_mentions_key_fields(self):
        stats = EvalStats(engine="bt", rounds=2, facts_per_round=[3, 0],
                          delta_sizes=[3, 3], join_probes=7,
                          horizon=10, period=(2, 5),
                          facts_derived=3)
        text = stats.summary()
        assert "engine:" in text and "bt" in text
        assert "rounds:" in text and "2" in text
        assert "(b=2, p=5)" in text
        assert "horizon:" in text

    def test_summary_caps_long_series(self):
        stats = EvalStats(facts_per_round=list(range(100)))
        text = stats.summary()
        assert "(+84 more)" in text
        assert "99" not in text

    def test_record_round_writes_the_round_event(self):
        sink = ListSink()
        stats = EvalStats(tracer=Tracer(sink))
        stats.record_round(3, 5, round=1, probes=7, store=9)
        stats.record_round(0, round=2, subgoals=4)
        stats.record_round(2, round=3, merges=2)
        assert [{k: v for k, v in e.items() if k != "ts"}
                for e in sink.events] == [
            {"event": "round", "round": 1, "delta": 5, "derived": 3,
             "probes": 7, "store": 9},
            {"event": "round", "round": 2, "derived": 0, "subgoals": 4},
            # The interval engine's merges name its derived count.
            {"event": "round", "round": 3, "merges": 2},
        ]
        assert stats.facts_per_round == [3, 0, 2]

    def test_emit_without_tracer_is_a_noop(self):
        stats = EvalStats()
        stats.emit("eval_start", engine="bt")
        stats.add_phase("evaluate", 0.5)
        assert stats.phase_seconds == {"evaluate": 0.5}

    def test_tracer_is_not_serialized_merged_or_compared(self):
        sink = ListSink()
        traced = EvalStats(engine="bt", tracer=Tracer(sink))
        assert traced == EvalStats(engine="bt")
        assert "tracer" not in traced.to_dict()
        assert EvalStats.from_json(traced.to_json()).tracer is None
        traced.merge(EvalStats(phase_seconds={"evaluate": 1.0},
                               tracer=Tracer(ListSink())))
        assert traced.phase_seconds == {"evaluate": 1.0}
        assert sink.events == []


# ---------------------------------------------------------------------------
# Tracer and sinks
# ---------------------------------------------------------------------------

class TestTracer:
    def test_list_sink_collects_events(self):
        sink = ListSink()
        tracer = Tracer(sink)
        tracer.emit("round", round=1, derived=4)
        tracer.emit("eval_end")
        assert [e["event"] for e in sink.events] == ["round", "eval_end"]
        assert sink.events[0]["round"] == 1
        assert sink.events[0]["derived"] == 4
        assert all("ts" in e for e in sink.events)

    def test_timestamps_are_monotone(self):
        sink = ListSink()
        tracer = Tracer(sink)
        for _ in range(5):
            tracer.emit("tick")
        stamps = [e["ts"] for e in sink.events]
        assert stamps == sorted(stamps)

    def test_disabled_tracer_emits_nothing(self):
        tracer = Tracer(None)
        assert not tracer.enabled
        tracer.emit("round", round=1)  # must not raise
        tracer.close()

    def test_jsonlines_sink_to_stream(self):
        buffer = io.StringIO()
        sink = JsonLinesSink(buffer)
        tracer = Tracer(sink)
        tracer.emit("eval_start", engine="bt", horizon=7)
        tracer.emit("round", round=1, derived=2)
        tracer.close()
        lines = buffer.getvalue().strip().splitlines()
        events = [json.loads(line) for line in lines]
        assert [e["event"] for e in events] == ["eval_start", "round"]
        assert events[0]["engine"] == "bt"

    def test_jsonlines_sink_to_path(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonLinesSink(path)
        tracer = Tracer(sink)
        tracer.emit("phase", name="evaluate", seconds=0.01)
        tracer.close()
        events = [json.loads(line)
                  for line in path.read_text().splitlines()]
        assert len(events) == 1
        assert events[0]["event"] == "phase"
        assert events[0]["name"] == "evaluate"


# ---------------------------------------------------------------------------
# Timing helpers
# ---------------------------------------------------------------------------

class TestTiming:
    def test_phase_timer_accumulates(self):
        stats = EvalStats()
        with phase_timer(stats, "evaluate"):
            pass
        with phase_timer(stats, "evaluate"):
            pass
        assert "evaluate" in stats.phase_seconds
        assert stats.phase_seconds["evaluate"] >= 0.0

    def test_phase_timer_emits_event(self):
        sink = ListSink()
        stats = EvalStats(tracer=Tracer(sink))
        with phase_timer(stats, "rewrite"):
            pass
        assert sink.events[0]["event"] == "phase"
        assert sink.events[0]["name"] == "rewrite"
        assert "rewrite" in stats.phase_seconds

    def test_phase_timer_none_is_noop(self):
        with phase_timer(None, "anything"):
            pass


# ---------------------------------------------------------------------------
# Instrumentation is inert when disabled
# ---------------------------------------------------------------------------

EVEN = """
even(T+2) :- even(T).
even(0).
"""


class TestDisabledInstrumentation:
    def test_results_identical_with_and_without(self):
        program = parse_program(EVEN)
        db = TemporalDatabase(program.facts)
        plain = fixpoint(program.rules, db, 20)
        sink = ListSink()
        stats = EvalStats(tracer=Tracer(sink))
        traced = fixpoint(program.rules, db, 20, stats=stats)
        assert plain == traced
        assert stats.rounds > 0
        assert sink.events

    def test_bt_result_carries_no_stats_by_default(self):
        program = parse_program(EVEN)
        result = bt_evaluate(program.rules,
                             TemporalDatabase(program.facts))
        assert result.stats is None

    def test_bt_result_carries_stats_when_requested(self):
        program = parse_program(EVEN)
        stats = EvalStats()
        result = bt_evaluate(program.rules,
                             TemporalDatabase(program.facts),
                             stats=stats)
        assert result.stats is stats
        assert stats.engine == "bt"
        assert stats.period is not None
        assert stats.horizon == result.horizon
        assert "evaluate" in stats.phase_seconds
        assert "period_detection" in stats.phase_seconds

    def test_store_stats_hook_is_detached_after_evaluation(self):
        program = parse_program(EVEN)
        db = TemporalDatabase(program.facts)
        store = fixpoint(program.rules, db, 20, stats=EvalStats())
        assert store.stats is None
        assert db.stats is None

    def test_trace_events_follow_schema(self):
        program = parse_program(EVEN)
        sink = ListSink()
        bt_evaluate(program.rules, TemporalDatabase(program.facts),
                    stats=EvalStats(tracer=Tracer(sink)))
        kinds = {e["event"] for e in sink.events}
        assert {"eval_start", "round", "eval_end",
                "phase", "period"} <= kinds
        for event in sink.events:
            assert "event" in event and "ts" in event
        rounds = [e for e in sink.events if e["event"] == "round"]
        assert all(isinstance(e["round"], int) for e in rounds)
        period = [e for e in sink.events if e["event"] == "period"][-1]
        assert period["b"] >= 0 and period["p"] >= 1


# ---------------------------------------------------------------------------
# Each engine's trace stream, pinned
# ---------------------------------------------------------------------------

STRATIFIED = """
on(T+3, X) :- on(T, X), who(X).
off(T+6, X) :- off(T, X), who(X).
up(T, X) :- on(T, X), not off(T, X).
who(a). who(b). on(0, a). on(1, b). off(1, b).
"""

# Not recursive: semi-naive round 0 adds facts to the store it joins
# against, so a recursive rule's round count would follow set order.
HOPS = """
hop(X, Y) :- edge(X, Y).
hop2(X, Z) :- hop(X, Y), edge(Y, Z).
edge(a, b). edge(b, c). edge(c, d).
"""

_WINDOW_RUN = {"eval_start": ("engine", "horizon", "initial_facts",
                              "rules"),
               "eval_end": ("facts",),
               "fact": ("args", "pred", "time")}
_SEMINAIVE_ROUND = ("delta", "derived", "probes", "round", "store")
_BT_RUN = dict(_WINDOW_RUN, phase=("name", "seconds"),
               period=("b", "certified", "horizon", "p"),
               round=_SEMINAIVE_ROUND)


def _even(*times):
    return TemporalDatabase([Fact("even", t, ()) for t in times])


def _incremental_insert(stats):
    program = parse_program(EVEN)
    model = IncrementalModel(program.rules, _even(0), stats=stats)
    model.insert(Fact("even", 3, ()))


def _incremental_delete(stats):
    program = parse_program(EVEN)
    model = IncrementalModel(program.rules, _even(0, 4), stats=stats)
    model.delete(Fact("even", 4, ()))


def _run(program, engine):
    parsed = parse_program(program)
    return lambda stats: engine(parsed, stats)


#: case -> (run(stats), {kind: count}, {kind: payload keys},
#: round-number runs as (first, last) pairs, eval_start engines).
TRACE_CASES = {
    "bt_seminaive": (
        _run(EVEN, lambda p, s: bt_evaluate(
            p.rules, TemporalDatabase(p.facts), stats=s)),
        {"eval_start": 1, "round": 9, "fact": 8, "eval_end": 1,
         "phase": 2, "period": 1},
        _BT_RUN, [(1, 9)], ["seminaive"]),
    "bt_compiled": (
        _run(EVEN, lambda p, s: bt_evaluate(
            p.rules, TemporalDatabase(p.facts), stats=s,
            engine="compiled")),
        {"eval_start": 1, "round": 9, "fact": 8, "eval_end": 1,
         "phase": 2, "period": 1},
        _BT_RUN, [(1, 9)], ["compiled"]),
    "bt_stratified": (
        _run(STRATIFIED, lambda p, s: bt_evaluate(
            p.rules, TemporalDatabase(p.facts), stats=s)),
        {"eval_start": 2, "round": 11, "fact": 37, "eval_end": 2,
         "phase": 2, "period": 1},
        _BT_RUN, [(1, 9), (1, 2)], ["stratified", "stratified"]),
    "bt_verbatim": (
        _run(EVEN, lambda p, s: bt_verbatim(
            p.rules, TemporalDatabase(p.facts), 12, stats=s)),
        {"eval_start": 1, "round": 7, "eval_end": 1},
        dict(_WINDOW_RUN, round=("derived", "round", "store")),
        [(1, 7)], ["bt_verbatim"]),
    "interval": (
        _run(EVEN, lambda p, s: interval_fixpoint(
            p.rules, TemporalDatabase(p.facts), 12, stats=s)),
        {"eval_start": 1, "round": 2, "eval_end": 1},
        {"eval_start": ("engine", "horizon", "rules"), "eval_end": (),
         "round": ("merges", "round")},
        [(1, 2)], ["interval"]),
    "magic": (
        _run(EVEN, lambda p, s: magic_ask(
            p.rules, TemporalDatabase(p.facts), Fact("even", 10, ()),
            stats=s)),
        {"phase": 1, "eval_start": 1, "round": 12, "fact": 11,
         "eval_end": 1},
        dict(_WINDOW_RUN, phase=("name", "seconds"),
             round=_SEMINAIVE_ROUND),
        [(1, 12)], ["magic"]),
    "topdown": (
        _run(EVEN, lambda p, s: topdown_ask(
            p.rules, TemporalDatabase(p.facts), Fact("even", 10, ()),
            stats=s)),
        {"subgoal": 6, "round": 10},
        {"subgoal": ("args", "pred", "seeded", "time"),
         "round": ("derived", "round", "subgoals")},
        [(1, 10)], []),
    "incremental_insert": (
        _incremental_insert,
        {"eval_start": 1, "round": 16, "fact": 14, "eval_end": 1,
         "phase": 2, "period": 1, "insert": 1},
        dict(_BT_RUN, insert=("facts", "path")),
        [(1, 9), (1, 7)], ["seminaive"]),
    "incremental_delete": (
        _incremental_delete,
        {"eval_start": 1, "round": 18, "fact": 17, "eval_end": 1,
         "phase": 2, "period": 1, "delete": 1},
        dict(_BT_RUN, delete=("facts",)),
        [(1, 9), (1, 9)], ["seminaive"]),
    "naive": (
        _run(HOPS, lambda p, s: naive_evaluate(p.rules, p.facts,
                                               stats=s)),
        {"round": 3}, {"round": ("derived", "round", "store")},
        [(1, 3)], []),
    "seminaive": (
        _run(HOPS, lambda p, s: seminaive_evaluate(p.rules, p.facts,
                                                   stats=s)),
        {"round": 2}, {"round": _SEMINAIVE_ROUND}, [(0, 1)], []),
}


def _round_runs(numbers):
    runs: list[list[int]] = []
    for n in numbers:
        if runs and n == runs[-1][1] + 1:
            runs[-1][1] = n
        else:
            runs.append([n, n])
    return [tuple(r) for r in runs]


class TestEngineTraceStreams:
    @pytest.mark.parametrize("case", sorted(TRACE_CASES))
    def test_trace_stream(self, case):
        run, counts, keys, round_runs, engines = TRACE_CASES[case]
        sink = ListSink()
        run(EvalStats(tracer=Tracer(sink)))
        events = sink.events
        seen: dict[str, int] = {}
        for event in events:
            kind = event["event"]
            seen[kind] = seen.get(kind, 0) + 1
            assert tuple(sorted(set(event) - {"event", "ts"})) \
                == keys[kind], (kind, event)
        assert seen == counts
        assert _round_runs(e["round"] for e in events
                           if e["event"] == "round") == round_runs
        assert [e["engine"] for e in events
                if e["event"] == "eval_start"] == engines
