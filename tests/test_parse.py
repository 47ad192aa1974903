"""Unit tests for the tokenizer and the rule/program parser."""

import pytest

from repro.lang import (ParseError, SortError, ValidationError,
                        parse_facts, parse_program, parse_rules, tokenize)
from repro.lang.atoms import Fact
from repro.lang.terms import TimeTerm


class TestTokenizer:
    def test_basic_tokens(self):
        kinds = [t.kind for t in tokenize("p(T+1) :- q(T).")]
        assert kinds == ["ident", "symbol", "ident", "symbol", "int",
                         "symbol", "symbol", "ident", "symbol", "ident",
                         "symbol", "symbol", "eof"]

    def test_comments_stripped(self):
        tokens = tokenize("p(0). % comment\n# another\nq(1).")
        idents = [t.text for t in tokens if t.kind == "ident"]
        assert idents == ["p", "q"]

    def test_interval_token(self):
        texts = [t.text for t in tokenize("p(1..5).")]
        assert ".." in texts

    def test_string_literals(self):
        tokens = tokenize("p('Hunter Mtn').")
        strings = [t for t in tokens if t.kind == "string"]
        assert strings[0].text == "Hunter Mtn"

    def test_unterminated_string(self):
        with pytest.raises(ParseError):
            tokenize("p('oops).")

    def test_unexpected_character(self):
        with pytest.raises(ParseError):
            tokenize("p(0) & q(0).")

    def test_line_numbers(self):
        tokens = tokenize("p(0).\nq(1).")
        q = next(t for t in tokens if t.text == "q")
        assert q.line == 2

    def test_non_decimal_digit_is_a_located_parse_error(self):
        # '²' is a digit to str.isdigit but no int() literal.
        with pytest.raises(ParseError) as info:
            tokenize("p(0).\np(\u00b2).")
        assert (info.value.line, info.value.column) == (2, 3)
        with pytest.raises(ParseError):
            parse_program("p(\u00b2).")

    def test_overlong_integer_is_a_located_parse_error(self):
        with pytest.raises(ParseError, match="too long") as info:
            parse_program("p(1" + "0" * 5000 + ").")
        assert (info.value.line, info.value.column) == (1, 3)


class TestProgramParsing:
    def test_even_example(self, even_program):
        assert len(even_program.rules) == 1
        assert len(even_program.facts) == 1
        assert even_program.temporal_preds == {"even"}

    def test_rule_shape(self, even_program):
        (rule,) = even_program.rules
        assert rule.head.pred == "even"
        assert rule.head.time == TimeTerm("T", 2)
        assert rule.body[0].time == TimeTerm("T", 0)

    def test_interval_fact_expansion(self):
        program = parse_program("p(T+1) :- p(T).\np(2..4).")
        times = sorted(f.time for f in program.facts)
        assert times == [2, 3, 4]

    def test_empty_interval_rejected(self):
        with pytest.raises(ParseError):
            parse_program("p(T+1) :- p(T).\np(4..2).")

    def test_missing_period(self):
        with pytest.raises(ParseError):
            parse_program("p(T+1) :- p(T)")

    def test_facts_with_data_arguments(self):
        program = parse_program("edge(a, b). edge(b, c).")
        assert set(program.facts) == {
            Fact("edge", None, ("a", "b")),
            Fact("edge", None, ("b", "c")),
        }

    def test_integers_as_data_constants(self):
        # No temporal evidence for weight: 3 stays a data constant.
        program = parse_program("weight(a, 3).")
        assert program.facts[0] == Fact("weight", None, ("a", 3))

    def test_non_ground_fact_rejected(self):
        with pytest.raises(ValidationError):
            parse_program("edge(X, b).")

    def test_rule_with_ground_time_rejected(self):
        with pytest.raises(ValidationError):
            parse_program("p(T+1) :- p(T), p(0).")

    def test_declared_temporal_fact(self):
        program = parse_program("@temporal up.\nup(3).")
        assert program.facts[0] == Fact("up", 3, ())

    def test_arity_mismatch_rejected(self):
        with pytest.raises(SortError):
            parse_program("p(T+1, X) :- p(T).")

    def test_parse_rules_rejects_facts(self):
        with pytest.raises(ValidationError):
            parse_rules("p(T+1) :- p(T).\np(0).")

    def test_parse_facts_rejects_rules(self):
        with pytest.raises(ValidationError):
            parse_facts("p(T+1) :- p(T).")

    def test_propositional_facts(self):
        program = parse_program("ready.")
        assert program.facts[0] == Fact("ready", None, ())


class TestSortInference:
    def test_propagation_through_shared_variable(self, path_program):
        # null(K) becomes temporal because K is path's temporal argument.
        assert "null" in path_program.temporal_preds
        assert "node" not in path_program.temporal_preds
        assert "edge" not in path_program.temporal_preds

    def test_travel_example_sorts(self, travel_program):
        assert travel_program.temporal_preds == {
            "plane", "offseason", "winter", "holiday"}

    def test_declaration_overrides(self):
        program = parse_program("@temporal q.\nq(5).")
        assert program.temporal_preds == {"q"}

    def test_contradictory_declaration(self):
        with pytest.raises(SortError):
            parse_program("@nontemporal p.\np(T+1) :- p(T).")

    def test_constant_in_temporal_position_rejected(self):
        with pytest.raises(SortError):
            parse_program("@temporal p.\np(now).")

    def test_temporal_variable_in_data_position_rejected(self):
        with pytest.raises(SortError):
            parse_program("p(T+1, X) :- p(T, X), r(T).\nr(a).")

    def test_interval_marks_temporal(self):
        program = parse_program("up(1..3).")
        assert program.temporal_preds == {"up"}

    def test_unknown_declaration_keyword(self):
        with pytest.raises(ParseError):
            parse_program("@frobnicate p.")
