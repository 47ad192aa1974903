"""Differential property suite: the spec cache never changes answers.

For ≥100 hypothesis-generated forward definite programs, three query
paths must agree exactly:

1. **cached spec** — the program is rendered to text, served through a
   :class:`~repro.serve.QueryService` backed by a persistent
   :class:`~repro.serve.SpecCache` (so answers flow through program
   normalization, content keying, JSON serialization, SQLite, and
   deserialization; a second service on the same file reaches the
   spec through the text's row, without parsing), and
2. **fresh spec** — :func:`repro.core.compute_specification` straight
   from the in-memory rules/database, and
3. **direct model-prefix evaluation** — the reference evaluator of
   :mod:`repro.core.queries` on a windowed BT fixpoint.

Open queries additionally check :meth:`AnswerSet.contains` against the
model prefix point-by-point — the finite representation must decide the
infinite answer set exactly as the model does.
"""

from __future__ import annotations

import sqlite3
import tempfile
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.core import TDD, answers, answers_on_model, compute_specification
from repro.core.queries import AtomQ, parse_query
from repro.core.serialize import spec_to_dict
from repro.lang.atoms import Atom, Fact
from repro.lang.rules import Rule
from repro.lang.terms import Const, TimeTerm, Var
from repro.serve import (QueryRequest, QueryService, SpecCache,
                         normalized_program, program_key)
from repro.serve.cache import text_digest
from repro.temporal import TemporalDatabase, bt_evaluate

HORIZON = 14

DIFF_SETTINGS = settings(max_examples=100, deadline=None,
                         suppress_health_check=[HealthCheck.too_slow])
AUX_SETTINGS = settings(max_examples=40, deadline=None,
                        suppress_health_check=[HealthCheck.too_slow])

CONSTANTS = ["a", "b"]
TEMPORAL_PREDS = {"p": 1, "q": 1, "r": 0}
NT_PRED = ("base", 1)


# ---------------------------------------------------------------------------
# Strategy: forward definite semi-normal programs (same family as the
# cross-engine differential harness)
# ---------------------------------------------------------------------------

@st.composite
def _rule(draw) -> Rule:
    head_offset = draw(st.integers(0, 2))

    def data_args(arity):
        return tuple(
            Var("X") if draw(st.booleans())
            else Const(draw(st.sampled_from(CONSTANTS)))
            for _ in range(arity)
        )

    body = []
    for _ in range(draw(st.integers(1, 2))):
        pred = draw(st.sampled_from(sorted(TEMPORAL_PREDS)))
        offset = draw(st.integers(0, head_offset))
        body.append(Atom(pred, TimeTerm("T", offset),
                         data_args(TEMPORAL_PREDS[pred])))
    if draw(st.booleans()):
        body.append(Atom(NT_PRED[0], None, data_args(NT_PRED[1])))

    head_pred = draw(st.sampled_from(sorted(TEMPORAL_PREDS)))
    body_vars = sorted({v.name for a in body for v in a.data_variables()})
    head_args = tuple(
        (Var(draw(st.sampled_from(body_vars))) if body_vars
         and draw(st.booleans())
         else Const(draw(st.sampled_from(CONSTANTS))))
        for _ in range(TEMPORAL_PREDS[head_pred])
    )
    return Rule(Atom(head_pred, TimeTerm("T", head_offset), head_args),
                tuple(body))


@st.composite
def programs(draw):
    rules = draw(st.lists(_rule(), min_size=1, max_size=3))
    facts = []
    for _ in range(draw(st.integers(1, 5))):
        pred = draw(st.sampled_from(sorted(TEMPORAL_PREDS)))
        args = tuple(draw(st.sampled_from(CONSTANTS))
                     for _ in range(TEMPORAL_PREDS[pred]))
        facts.append(Fact(pred, draw(st.integers(0, 4)), args))
    for _ in range(draw(st.integers(0, 2))):
        facts.append(Fact(NT_PRED[0], None,
                          (draw(st.sampled_from(CONSTANTS)),)))
    return rules, facts


@st.composite
def ground_goals(draw):
    pred = draw(st.sampled_from(sorted(TEMPORAL_PREDS)))
    args = tuple(draw(st.sampled_from(CONSTANTS))
                 for _ in range(TEMPORAL_PREDS[pred]))
    return Fact(pred, draw(st.integers(0, HORIZON)), args)


# ---------------------------------------------------------------------------
# Shared service: one persistent cache across all generated programs —
# distinct programs hash to distinct keys, so sharing is safe and also
# exercises the cache under a realistic many-program population.
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def service(tmp_path_factory) -> QueryService:
    path = tmp_path_factory.mktemp("serve-diff") / "specs.sqlite"
    return QueryService(cache=SpecCache(path, memory_size=8))


@pytest.fixture(scope="module")
def reader(service) -> QueryService:
    """A second service on ``service``'s cache file: its maps start
    empty, so it reaches each spec through the text's row."""
    return QueryService(cache=SpecCache(service.cache.path,
                                        memory_size=8))


def _program_text(rules, facts) -> str:
    tdd = TDD(rules, facts)
    return normalized_program(tdd.rules, tdd.database.facts(),
                              tdd.temporal_preds)


def _reformatted(text: str) -> str:
    """Another text of the same program: the facts (the last block of
    a normalized text) reversed, and a blank line after every line."""
    *blocks, facts = text.strip("\n").split("\n\n")
    lines = [line for block in blocks for line in block.splitlines()]
    return "".join(line + "\n\n"
                   for line in lines + facts.splitlines()[::-1])


# ---------------------------------------------------------------------------
# Ground queries: cached == fresh == direct (the CI floor: 100 examples)
# ---------------------------------------------------------------------------

class TestGroundAgreement:
    @DIFF_SETTINGS
    @given(programs(), st.lists(ground_goals(), min_size=1, max_size=4))
    def test_cached_fresh_and_direct_agree(self, service, program,
                                           goals):
        rules, facts = program
        text = _program_text(rules, facts)
        database = TemporalDatabase(facts)
        fresh = compute_specification(rules, database)
        direct = bt_evaluate(rules, database, window=HORIZON)

        requests = [QueryRequest(program=text, query=str(goal.to_atom()),
                                 kind="ask")
                    for goal in goals]
        responses = service.serve_batch(requests)

        for goal, response in zip(goals, responses):
            assert response.ok, response.error
            assert not response.degraded
            via_cache = response.answer
            via_fresh = fresh.holds(goal)
            via_model = direct.holds(goal)
            assert via_cache == via_fresh == via_model, (
                f"{goal}: cache={via_cache} fresh={via_fresh} "
                f"model={via_model} for\n{text}")


# ---------------------------------------------------------------------------
# Text rows: answers reached without a parse equal the parse path's
# ---------------------------------------------------------------------------

class TestTextRowAgreement:
    @DIFF_SETTINGS
    @given(programs(), st.lists(ground_goals(), min_size=1, max_size=4))
    def test_text_rows_answer_like_the_parse_path(self, service, reader,
                                                  program, goals):
        rules, facts = program
        text = _program_text(rules, facts)
        requests = [QueryRequest(program=text, query=str(goal.to_atom()),
                                 kind="ask")
                    for goal in goals]
        service.serve_batch(requests)  # stores the text's row
        parsed = QueryService(cache=SpecCache()).serve_batch(requests)
        parses = reader.counters()["parses"]
        via_text = reader.serve_batch(requests)
        assert reader.counters()["parses"] == parses
        direct = bt_evaluate(rules, TemporalDatabase(facts),
                             window=HORIZON)
        for goal, fresh, cached in zip(goals, parsed, via_text):
            assert fresh.ok and cached.ok, (fresh.error, cached.error)
            assert cached.source in ("memory", "disk")
            assert cached.key == fresh.key
            assert cached.answer == fresh.answer == direct.holds(goal), (
                f"{goal}: text={cached.answer} parse={fresh.answer} "
                f"model={direct.holds(goal)} for\n{text}")

    @DIFF_SETTINGS
    @given(programs(), ground_goals())
    def test_reformatted_text_parses_once_and_gets_its_row(
            self, program, goal):
        rules, facts = program
        text = _program_text(rules, facts)
        other = _reformatted(text)
        assert other != text
        query = str(goal.to_atom())
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "specs.sqlite"
            service = QueryService(cache=SpecCache(path))
            first, second, third = (
                service.serve(QueryRequest(program=program_text,
                                           query=query))
                for program_text in (text, other, other))
            assert service.counters()["parses"] == 2
            assert service.counters()["spec_computes"] == 1
            assert first.key == second.key == third.key
            assert first.answer == second.answer == third.answer
            assert [second.source, third.source] == ["memory", "memory"]
            with sqlite3.connect(str(path)) as connection:
                texts = dict(connection.execute(
                    "SELECT digest, key FROM texts").fetchall())
                specs = connection.execute(
                    "SELECT key FROM specs").fetchall()
            connection.close()
        assert texts == {text_digest(text): first.key,
                         text_digest(other): first.key}
        assert specs == [(first.key,)]


# ---------------------------------------------------------------------------
# Open queries: answer sets agree, and contains() decides membership
# exactly as the model prefix does
# ---------------------------------------------------------------------------

def _as_set(substitutions) -> set:
    return {frozenset(sub.items()) for sub in substitutions}


class TestOpenQueryAgreement:
    @AUX_SETTINGS
    @given(programs())
    def test_answer_sets_and_contains_agree(self, service, program):
        rules, facts = program
        text = _program_text(rules, facts)
        tdd = TDD.from_text(text)
        database = TemporalDatabase(facts)
        fresh = compute_specification(rules, database)
        query = parse_query("p(S, X0)", tdd.temporal_preds)

        # Path 1: through the persistent cache (spec deserialized).
        spec, _ = service.specification(tdd)
        via_cache = answers(query, spec)
        # Path 2: fresh spec.
        via_fresh = answers(query, fresh)
        assert via_cache.variables == via_fresh.variables
        assert via_cache.substitutions == via_fresh.substitutions
        assert (via_cache.b, via_cache.p) == (via_fresh.b, via_fresh.p)

        # Path 3: direct model-prefix enumeration.
        window = max(HORIZON, fresh.b + fresh.p)
        direct = bt_evaluate(rules, database, window=window)
        concrete = answers_on_model(query, direct, time_bound=HORIZON)
        expanded = list(via_cache.expand(HORIZON))
        assert _as_set(concrete) == _as_set(expanded)

        # contains() spot checks: every candidate point, both ways.
        for t in range(HORIZON + 1):
            for const in CONSTANTS:
                candidate = {"S": t, "X0": const}
                in_model = direct.store.contains("p", t, (const,))
                assert via_cache.contains(candidate) == in_model, (
                    f"contains({candidate}) disagrees with the model "
                    f"for\n{text}")

    @AUX_SETTINGS
    @given(programs())
    def test_spec_round_trip_is_exact(self, service, program):
        """The cached spec is bit-identical to the fresh one (as dicts):
        serialization can never perturb the finite object."""
        rules, facts = program
        text = _program_text(rules, facts)
        tdd = TDD.from_text(text)
        spec, _ = service.specification(tdd)
        fresh = compute_specification(rules, TemporalDatabase(facts))
        assert spec_to_dict(spec) == spec_to_dict(fresh)


# ---------------------------------------------------------------------------
# Keying: normalization invariance and change sensitivity
# ---------------------------------------------------------------------------

class TestContentKeys:
    @AUX_SETTINGS
    @given(programs())
    def test_key_survives_reordering_and_reparsing(self, program):
        rules, facts = program
        tdd = TDD(rules, facts)
        text = _program_text(rules, facts)
        reparsed = TDD.from_text(text)
        key_objects = program_key(tdd.rules, tdd.database.facts(),
                                  tdd.temporal_preds)
        key_reparsed = program_key(reparsed.rules,
                                   reparsed.database.facts(),
                                   reparsed.temporal_preds)
        key_shuffled = program_key(tdd.rules,
                                   reversed(list(tdd.database.facts())),
                                   tdd.temporal_preds)
        assert key_objects == key_reparsed == key_shuffled

    @AUX_SETTINGS
    @given(programs(), ground_goals())
    def test_key_changes_with_the_database(self, program, extra):
        rules, facts = program
        tdd = TDD(rules, facts)
        grown = TDD(rules, list(facts) + [Fact(extra.pred,
                                               extra.time + 50,
                                               extra.args)])
        assert (program_key(tdd.rules, tdd.database.facts(),
                            tdd.temporal_preds)
                != program_key(grown.rules, grown.database.facts(),
                               grown.temporal_preds))


def test_ground_goal_atoms_parse_back():
    """str(Fact.to_atom()) must be valid query syntax (the differential
    suite relies on it to route goals through the service)."""
    goal = Fact("p", 3, ("a",))
    query = parse_query(str(goal.to_atom()), frozenset({"p"}))
    assert isinstance(query, AtomQ)
    assert query.atom.to_fact() == goal
