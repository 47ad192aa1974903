"""The TDD facade: one object for a whole temporal deductive database.

A temporal deductive database is a finite set of temporal rules plus a
finite temporal database (Section 3.1).  :class:`TDD` bundles both with
the full query-processing pipeline of the paper:

>>> from repro import TDD
>>> tdd = TDD.from_text('''
...     even(T+2) :- even(T).
...     even(0).
... ''')
>>> tdd.ask("even(4)")
True
>>> tdd.ask("even(3)")
False
>>> sorted(a["X"] for a in tdd.answers("even(X)").expand(10))
[0, 2, 4, 6, 8, 10]

Evaluation (algorithm BT), the relational specification, and the period
are computed lazily and cached; classification helpers surface the
tractable classes of Sections 5 and 6.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence, Union

from ..lang.atoms import Atom, Fact
from ..lang.rules import Rule, validate_rules
from ..lang.sorts import parse_program
from ..temporal.bt import BTResult, bt_evaluate
from ..temporal.database import TemporalDatabase
from ..temporal.periodicity import Period, forward_lookback
from .answers import AnswerSet
from .classify import (SeparabilityReport, classify_ruleset,
                       is_separable)
from .inflationary import is_inflationary
from .queries import Query, answers as query_answers, evaluate, parse_query
from .spec import RelationalSpec, spec_from_result


@dataclass
class Classification:
    """Which tractable classes of the paper a ruleset falls into.

    ``inflationary`` is None when the Theorem 5.2 decision procedure
    does not apply (rules outside the paper's assumptions: negation or
    ground terms), with the reason in ``inflationary_note``.
    """

    inflationary: Union[bool, None]
    multi_separable: bool
    separable: bool
    forward: bool
    report: SeparabilityReport
    inflationary_note: str = ""

    @property
    def provably_tractable(self) -> bool:
        """Covered by Theorem 5.1 or Theorem 6.5 ⇒ polynomial periodic."""
        return bool(self.inflationary) or self.multi_separable


class TDD:
    """A temporal deductive database ``Z ∧ D`` with cached evaluation."""

    def __init__(self, rules: Sequence[Rule],
                 database: Union[TemporalDatabase, Iterable[Fact]] = (),
                 temporal_preds: Iterable[str] = (),
                 engine: str = "seminaive"):
        from ..engines import canonical_window_engine
        validate_rules(rules)
        #: Window engine BT runs on (see :mod:`repro.engines`); the
        #: model and specification are engine-independent, so the cached
        #: result/spec need no per-engine key.
        self.engine = canonical_window_engine(engine)
        self.rules: tuple[Rule, ...] = tuple(rules)
        if isinstance(database, TemporalDatabase):
            self.database = database
        else:
            self.database = TemporalDatabase(database)
        preds = set(temporal_preds)
        for rule in self.rules:
            for atom in rule.atoms():
                if atom.time is not None:
                    preds.add(atom.pred)
        for fact in self.database.temporal_facts():
            preds.add(fact.pred)
        self.temporal_preds: frozenset[str] = frozenset(preds)
        self._result: Union[BTResult, None] = None
        self._spec: Union[RelationalSpec, None] = None
        self._provenance = None  # ProvenanceStore of the cached result

    @classmethod
    def from_text(cls, text: str, engine: str = "seminaive") -> "TDD":
        """Build a TDD from program text (rules + facts, paper syntax)."""
        # The constructor validates the rules, so parsing does not.
        program = parse_program(text, validate=False)
        return cls(program.rules, program.facts,
                   temporal_preds=program.temporal_preds,
                   engine=engine)

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, stats=None, metrics=None,
                 provenance=None, **bt_kwargs) -> BTResult:
        """Run algorithm BT (cached when called without tuning arguments).

        ``stats``/``metrics``/``provenance`` plug the observability
        layer in (:mod:`repro.obs`; a tracer rides on ``stats``); the
        instrumented result is cached like the plain one, so follow-up
        queries reuse it (and :meth:`explain` prefers the recorded
        provenance).
        """
        if bt_kwargs:
            bt_kwargs.setdefault("engine", self.engine)
            return bt_evaluate(self.rules, self.database,
                               stats=stats, metrics=metrics,
                               provenance=provenance, **bt_kwargs)
        if self._result is None or stats is not None \
                or metrics is not None or provenance is not None:
            self._result = bt_evaluate(self.rules, self.database,
                                       stats=stats, metrics=metrics,
                                       provenance=provenance,
                                       engine=self.engine)
            if provenance is not None:
                self._provenance = provenance
        return self._result

    def provenance(self):
        """Evaluate with derivation recording on and return the
        :class:`~repro.obs.provenance.ProvenanceStore` (cached together
        with the result it belongs to)."""
        if self._provenance is None:
            from ..obs.provenance import ProvenanceStore
            self.evaluate(provenance=ProvenanceStore())
        return self._provenance

    def specification(self) -> RelationalSpec:
        """The relational specification ``S(Z∧D) = (T, B, W)`` (cached)."""
        if self._spec is None:
            self._spec = spec_from_result(self.evaluate())
        return self._spec

    def adopt_specification(self, spec: RelationalSpec) -> None:
        """Install a precomputed specification (e.g. from the spec
        cache of :mod:`repro.serve`), so queries answered through
        :meth:`ask`/:meth:`answers` skip BT entirely.

        The caller vouches that ``spec`` belongs to this TDD's program
        and database — content-address it with
        :func:`repro.serve.cache.tdd_key` to be sure.
        """
        self._spec = spec

    def period(self) -> Period:
        """The minimal period ``(b, p)`` of the least model."""
        result = self.evaluate()
        if result.period is None:
            raise RuntimeError("BT did not detect a period")
        return result.period

    # -- queries ------------------------------------------------------------

    def _coerce_query(self, query: Union[str, Query, Atom, Fact]) -> Query:
        from .queries import AtomQ
        if isinstance(query, str):
            return parse_query(query, self.temporal_preds)
        if isinstance(query, Fact):
            return AtomQ(query.to_atom())
        if isinstance(query, Atom):
            return AtomQ(query)
        return query

    def ask(self, query: Union[str, Query, Atom, Fact],
            binding: Union[Mapping, None] = None) -> bool:
        """Yes/no query against the infinite least model.

        Accepts a textual query, a :class:`Query`, or a ground atom.
        Closed queries evaluate on the relational specification
        (sound and complete by Proposition 3.1).
        """
        coerced = self._coerce_query(query)
        return evaluate(coerced, self.specification(), binding=binding)

    def answers(self, query: Union[str, Query]) -> AnswerSet:
        """All answers to an open query, as a finite representation."""
        coerced = self._coerce_query(query)
        return query_answers(coerced, self.specification())

    def holds(self, fact: Union[Fact, Atom]) -> bool:
        """Ground atomic membership in the least model (fast path)."""
        return self.evaluate().holds(fact)

    def explain(self, fact: Union[Fact, Atom]):
        """A derivation tree justifying a model fact.

        Facts beyond the computed window are folded through the period
        first (their derivation is the folded representative's, by
        periodicity).  When the engine ran with provenance recording on
        (see :meth:`provenance`), the *recorded* proof is returned —
        constant-time per node; otherwise the search-based
        reconstruction of :func:`repro.temporal.explain.explain` runs
        (worst-case exponential on negation-heavy programs).
        """
        from ..temporal.explain import explain as _explain
        result = self.evaluate()
        if isinstance(fact, Atom):
            fact = fact.to_fact()
        if (fact.time is not None and fact.time > result.horizon
                and result.period is not None):
            fact = Fact(fact.pred, result.period.fold(fact.time),
                        fact.args)
        if self._provenance is not None:
            recorded = self._provenance.derivation(fact,
                                                   database=self.database)
            if recorded is not None:
                return recorded
        return _explain(self.rules, self.database, result.store, fact)

    # -- classification -----------------------------------------------------

    def classification(self) -> Classification:
        """Membership in the paper's tractable classes."""
        from ..lang.errors import ClassificationError

        proper = [r for r in self.rules if not r.is_fact]
        report = classify_ruleset(proper)
        inflationary: Union[bool, None]
        note = ""
        try:
            inflationary = is_inflationary(proper)
        except ClassificationError as exc:
            inflationary = None
            note = str(exc)
        return Classification(
            inflationary=inflationary,
            multi_separable=report.is_multi_separable,
            separable=is_separable(proper),
            forward=forward_lookback(proper) is not None,
            report=report,
            inflationary_note=note,
        )

    # -- tooling --------------------------------------------------------

    def analyze(self):
        """Static analysis + lints (see :mod:`repro.core.analysis`)."""
        from .analysis import analyze as _analyze
        return _analyze(self.rules, self.database.facts())

    def timeline(self, predicates=None, until=None) -> str:
        """ASCII timeline of the computed model (CLI: ``timeline``)."""
        from ..temporal.intervals import timeline as _timeline
        result = self.evaluate()
        if predicates is None:
            predicates = sorted(result.store.temporal_predicates())
        if until is None:
            until = min(result.horizon,
                        (self.period().b + 2 * self.period().p
                         if result.period else result.horizon))
        return _timeline(result.store, predicates, until)

    def describe(self):
        """Interval description of the infinite model, per tuple."""
        from ..temporal.intervals import describe_periodic
        result = self.evaluate()
        period = self.period()
        return describe_periodic(result.store, period.b, period.p)

    def __repr__(self) -> str:
        return (f"TDD({len(self.rules)} rules, "
                f"n={self.database.n}, c={self.database.c})")
