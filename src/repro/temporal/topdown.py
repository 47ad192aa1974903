"""Tabled top-down evaluation (QSQ-style) for temporal rules.

The third evaluation strategy, complementing bottom-up BT (Figure 1)
and the magic-sets rewriting of Section 8: goal-driven resolution with
*tabling*.  Subgoals are canonicalised into call patterns (predicate +
ground/free slots); each pattern owns an answer table, and the engine
sweeps the dependency structure until every table is saturated — the
iterative variant of QSQR, which terminates because call patterns and
window facts are both finite.

Semantics matches the window-truncated fixpoint exactly (property-
tested against :func:`repro.temporal.operator.fixpoint`): a body atom
whose timepoint exceeds the window simply has no answers, mirroring
BT's truncation.  Definite rules only — combining tabling with
stratified negation (SLG resolution) is out of scope.

Typical use: a handful of ground or half-ground queries against a large
program where even the magic-rewritten bottom-up pass derives more than
the questions need.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Iterator, Sequence, Union

from ..lang.atoms import Atom, Fact
from ..lang.errors import EvaluationError
from ..lang.rules import Rule, validate_rules
from ..lang.terms import Const
from .database import TemporalDatabase

#: Placeholder for an unbound slot in a call pattern.
FREE = object()

#: A call pattern: (pred, time slot, data slots); slots are ground
#: values or FREE.
CallPattern = tuple


def _pattern_of(atom: Atom, binding: dict) -> CallPattern:
    if atom.time is None:
        time_slot: object = None
    elif atom.time.var is None:
        time_slot = atom.time.offset
    elif atom.time.var in binding:
        time_slot = binding[atom.time.var] + atom.time.offset
    else:
        time_slot = FREE
    args = tuple(
        arg.value if isinstance(arg, Const)
        else binding.get(arg.name, FREE)
        for arg in atom.args
    )
    return (atom.pred, time_slot, args)


def _pattern_matches(pattern: CallPattern, fact: Fact) -> bool:
    pred, time_slot, args = pattern
    if fact.pred != pred or len(args) != len(fact.args):
        return False
    if time_slot is None:
        if fact.time is not None:
            return False
    elif time_slot is not FREE:
        if fact.time != time_slot:
            return False
    elif fact.time is None:
        return False
    return all(slot is FREE or slot == value
               for slot, value in zip(args, fact.args))


@dataclass
class _Table:
    answers: set[Fact] = field(default_factory=set)


class TopDownEngine:
    """Tabled top-down evaluation over a window ``[0..horizon]``."""

    def __init__(self, rules: Sequence[Rule],
                 database: TemporalDatabase, horizon: int,
                 stats=None, metrics=None):
        validate_rules(rules)
        proper = [r for r in rules if not r.is_fact]
        if any(not r.is_definite for r in proper):
            raise EvaluationError(
                "the top-down engine handles definite rules; stratified "
                "programs go through bt_evaluate"
            )
        self.rules = proper
        self.facts = [r.head.to_fact() for r in rules if r.is_fact]
        self.database = database
        self.horizon = horizon
        self._by_head: dict[str, list[Rule]] = {}
        for rule in self.rules:
            self._by_head.setdefault(rule.head.pred, []).append(rule)
        self._tables: dict[CallPattern, _Table] = {}
        self.stats = {"subgoals": 0, "sweeps": 0, "answers": 0}
        self.eval_stats = stats
        self.metrics = metrics
        if stats is not None:
            stats.engine = "topdown"
            stats.horizon = horizon

    # -- public API -----------------------------------------------------

    def query(self, atom: Atom) -> set[Fact]:
        """All window facts matching ``atom`` (vars are free slots)."""
        pattern = _pattern_of(atom, {})
        self._register(pattern)
        self._saturate()
        return set(self._tables[pattern].answers)

    def ask(self, goal: Union[Fact, Atom]) -> bool:
        """Ground membership within the window."""
        if isinstance(goal, Atom):
            goal = goal.to_fact()
        if goal.time is not None and goal.time > self.horizon:
            raise EvaluationError(
                f"goal at time {goal.time} exceeds the window "
                f"{self.horizon}"
            )
        return bool(self.query(goal.to_atom()))

    def table_sizes(self) -> dict[CallPattern, int]:
        return {pattern: len(table.answers)
                for pattern, table in self._tables.items()}

    # -- internals -------------------------------------------------------

    def _register(self, pattern: CallPattern) -> _Table:
        table = self._tables.get(pattern)
        if table is None:
            table = _Table()
            self._tables[pattern] = table
            self.stats["subgoals"] += 1
            self._seed_extensional(pattern, table)
            if self.eval_stats is not None:
                pred, time_slot, args = pattern
                self.eval_stats.emit(
                    "subgoal", pred=pred,
                    time="free" if time_slot is FREE else time_slot,
                    args=["free" if a is FREE else a for a in args],
                    seeded=len(table.answers))
        return table

    def _seed_extensional(self, pattern: CallPattern,
                          table: _Table) -> None:
        pred, time_slot, args = pattern
        if time_slot is None:
            candidates = [Fact(pred, None, values)
                          for values in self.database.nt.lookup(
                              pred, (), ())]
        elif time_slot is FREE:
            candidates = [
                Fact(pred, t, values)
                for t in self.database.times(pred)
                if t <= self.horizon
                for values in self.database.lookup_at(pred, t, (), ())
            ]
        else:
            candidates = [
                Fact(pred, time_slot, values)
                for values in self.database.lookup_at(
                    pred, time_slot, (), ())
            ] if isinstance(time_slot, int) and \
                0 <= time_slot <= self.horizon else []
        for fact in candidates:
            if _pattern_matches(pattern, fact):
                table.answers.add(fact)
        for fact in self.facts:
            if _pattern_matches(pattern, fact) and (
                    fact.time is None or fact.time <= self.horizon):
                table.answers.add(fact)

    def _saturate(self) -> None:
        handles = ([self.metrics.rule(r) for r in self.rules]
                   if self.metrics is not None else None)
        while True:
            self.stats["sweeps"] += 1
            answers_before = self.stats["answers"]
            tables_before = len(self._tables)
            if handles is not None:
                for rm in handles:
                    rm.begin_round()
            changed = False
            for pattern in list(self._tables):
                if self._solve(pattern):
                    changed = True
            if handles is not None:
                for rm in handles:
                    rm.end_round()
            derived = self.stats["answers"] - answers_before
            if self.eval_stats is not None:
                self.eval_stats.record_round(
                    derived, round=self.stats["sweeps"],
                    subgoals=len(self._tables))
                self.eval_stats.extra["subgoals"] = \
                    self.stats["subgoals"]
            # A sweep that registered new subgoal tables must be
            # followed by another even if no answer was produced yet.
            if not changed and len(self._tables) == tables_before:
                if self.metrics is not None and \
                        self.eval_stats is not None:
                    self.metrics.export_into(self.eval_stats)
                return

    def _solve(self, pattern: CallPattern) -> bool:
        pred, time_slot, arg_slots = pattern
        table = self._tables[pattern]
        grew = False
        for rule in self._by_head.get(pred, []):
            rm = self.metrics.rule(rule) if self.metrics is not None \
                else None
            binding = self._bind_head(rule.head, time_slot, arg_slots)
            if binding is None:
                continue
            if rm is not None:
                rule_t0 = perf_counter()
            for full in self._solve_body(rule.body, 0, binding, rm):
                fact = self._head_fact(rule.head, full)
                if rm is not None:
                    rm.firings += 1
                if fact.time is not None and (
                        fact.time > self.horizon or fact.time < 0):
                    continue
                if _pattern_matches(pattern, fact):
                    if fact not in table.answers:
                        table.answers.add(fact)
                        self.stats["answers"] += 1
                        grew = True
                        if rm is not None:
                            rm.new_facts += 1
                    elif rm is not None:
                        rm.duplicates += 1
            if rm is not None:
                rm.seconds += perf_counter() - rule_t0
        return grew

    def _bind_head(self, head: Atom, time_slot,
                   arg_slots) -> Union[dict, None]:
        binding: dict = {}
        if head.time is not None and time_slot is not None \
                and time_slot is not FREE:
            if head.time.var is None:
                if head.time.offset != time_slot:
                    return None
            else:
                base = time_slot - head.time.offset
                if base < 0:
                    return None
                binding[head.time.var] = base
        for arg, slot in zip(head.args, arg_slots):
            if slot is FREE:
                continue
            if isinstance(arg, Const):
                if arg.value != slot:
                    return None
            else:
                bound = binding.get(arg.name)
                if bound is None:
                    binding[arg.name] = slot
                elif bound != slot:
                    return None
        return binding

    def _solve_body(self, body: tuple, index: int,
                    binding: dict, rm=None) -> Iterator[dict]:
        if index == len(body):
            yield binding
            return
        atom = body[index]
        sub_pattern = _pattern_of(atom, binding)
        if isinstance(sub_pattern[1], int) and (
                sub_pattern[1] > self.horizon or sub_pattern[1] < 0):
            return
        sub_table = self._register(sub_pattern)
        from ..lang.subst import match_atom
        stats = self.eval_stats
        for answer in list(sub_table.answers):
            if stats is not None:
                stats.join_probes += 1
            if rm is not None:
                rm.probes += 1
            extended = match_atom(atom, answer, binding)
            if extended is not None:
                yield from self._solve_body(body, index + 1, extended,
                                            rm)

    @staticmethod
    def _head_fact(head: Atom, binding: dict) -> Fact:
        from ..lang.subst import instantiate_head
        return instantiate_head(head, binding)


def topdown_ask(rules: Sequence[Rule], database: TemporalDatabase,
                goal: Union[Fact, Atom],
                horizon: Union[int, None] = None,
                stats=None, metrics=None) -> bool:
    """One-shot goal-directed ground query via tabled top-down
    resolution.  ``horizon`` defaults to the goal's timepoint plus one
    rule depth (exact for forward programs, whose derivations never
    overshoot the goal by more than ``g``)."""
    if isinstance(goal, Atom):
        goal = goal.to_fact()
    if horizon is None:
        g = max((r.temporal_depth for r in rules), default=1)
        query_depth = goal.time if goal.time is not None else 0
        horizon = max(query_depth, database.c) + g
    engine = TopDownEngine(rules, database, horizon, stats=stats,
                           metrics=metrics)
    return engine.ask(goal)
