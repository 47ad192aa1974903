"""Tests for relational specifications (Section 3.3)."""

import pytest

from repro.core import compute_specification, spec_from_result
from repro.lang.atoms import Fact
from repro.lang.errors import EvaluationError
from repro.rewrite import RewriteRule, RewriteSystem
from repro.temporal import bt_evaluate


class TestEvenExample:
    """The paper's worked specification: T={0,1}, B={even(0)}, W={2->0}."""

    @pytest.fixture()
    def spec(self, even_program, even_db):
        return compute_specification(even_program.rules, even_db)

    def test_representatives(self, spec):
        assert spec.representatives == (0, 1)

    def test_primary_database(self, spec):
        assert set(spec.primary.facts()) == {Fact("even", 0, ())}

    def test_rewrite_system(self, spec):
        assert spec.rewrites == RewriteSystem([RewriteRule(2, 0)])

    def test_paper_queries(self, spec):
        # even(4) ~> even(2) ~> even(0) in B: yes.
        assert spec.holds(Fact("even", 4, ()))
        # even(3) ~> even(1) not in B: no.
        assert not spec.holds(Fact("even", 3, ()))

    def test_far_queries(self, spec):
        assert spec.holds(Fact("even", 10 ** 18, ()))
        assert not spec.holds(Fact("even", 10 ** 18 + 1, ()))

    def test_size(self, spec):
        assert spec.size == 2 + 1 + 1  # |T| + |B| + |W|

    def test_state_reconstruction(self, spec):
        assert spec.state(100) == frozenset({("even", ())})
        assert spec.state(101) == frozenset()


class TestSpecProperties:
    def test_spec_matches_model_on_window(self, travel_program,
                                          travel_db):
        result = bt_evaluate(travel_program.rules, travel_db)
        spec = spec_from_result(result)
        for fact in result.store.temporal_facts():
            assert spec.holds(fact), fact
        # Sample of negatives.
        for t in range(0, 400, 17):
            fact = Fact("plane", t, ("nowhere",))
            assert spec.holds(fact) == result.holds(fact)

    def test_primary_covers_exactly_first_period(self, travel_program,
                                                 travel_db):
        spec = compute_specification(travel_program.rules, travel_db)
        assert spec.primary.max_time() <= spec.b + spec.p - 1
        assert len(spec.representatives) == spec.b + spec.p

    def test_active_domain(self, travel_program, travel_db):
        spec = compute_specification(travel_program.rules, travel_db)
        assert "hunter" in spec.active_domain()

    def test_no_period_raises(self, even_program, even_db):
        result = bt_evaluate(even_program.rules, even_db, window=2)
        assert result.period is None
        with pytest.raises(EvaluationError):
            spec_from_result(result)

    def test_non_temporal_facts_in_primary(self, path_program, path_db):
        spec = compute_specification(path_program.rules, path_db)
        assert spec.holds(Fact("edge", None, ("a", "b")))
        assert not spec.holds(Fact("edge", None, ("a", "z")))

    def test_inflationary_spec_period_one(self, path_program, path_db):
        spec = compute_specification(path_program.rules, path_db)
        assert spec.p == 1
        # Once reachable, always reachable.
        assert spec.holds(Fact("path", 10 ** 9, ("a", "d")))
        assert not spec.holds(Fact("path", 10 ** 9, ("d", "a")))

    def test_representative_of_idempotent(self, even_program, even_db):
        spec = compute_specification(even_program.rules, even_db)
        for t in range(50):
            r = spec.representative_of(t)
            assert spec.representative_of(r) == r
            assert r in spec.representatives


class TestFactsBetween:
    def test_deep_range_materialisation(self, even_program, even_db):
        spec = compute_specification(even_program.rules, even_db)
        base = 10 ** 12
        facts = list(spec.facts_between(base, base + 4))
        times = [f.time for f in facts]
        assert times == [base, base + 2, base + 4]
        assert all(f.pred == "even" for f in facts)

    def test_matches_direct_window(self, travel_program, travel_db):
        from repro.temporal import fixpoint
        spec = compute_specification(travel_program.rules, travel_db)
        direct = fixpoint(travel_program.rules, travel_db, 60)
        via_spec = {
            (f.pred, f.time, f.args)
            for f in spec.facts_between(20, 60)
        }
        expected = {
            (f.pred, f.time, f.args)
            for f in direct.temporal_facts()
            if 20 <= f.time <= 60
        }
        assert via_spec == expected


class TestDataDomain:
    """The active domain of ``B`` is built at most once per spec, and
    only for queries that enumerate the data sort."""

    def test_built_once_and_only_when_enumerated(self, monkeypatch,
                                                 travel_program,
                                                 travel_db):
        from repro.core.queries import answers, evaluate, parse_query
        from repro.core.spec import RelationalSpec
        builds: list = []
        original = RelationalSpec.active_domain

        def counting(spec):
            builds.append(spec)
            return original(spec)

        monkeypatch.setattr(RelationalSpec, "active_domain", counting)
        spec = compute_specification(travel_program.rules, travel_db)
        preds = travel_program.temporal_preds

        def ask(text: str) -> bool:
            return evaluate(parse_query(text, preds), spec)

        assert ask(f"plane({377 + 365 * 10 ** 6}, hunter)") is True
        joined = answers(parse_query("plane(T, X) and resort(X)", preds),
                         spec, method="join")
        assert ("hunter" in {values[1]
                             for values in joined.substitutions})
        assert builds == []
        for _ in range(50):
            assert ask("exists X: plane(12, X)") is True
        assert len(builds) == 1
        assert spec.data_domain == tuple(sorted(original(spec), key=str))
