"""Incremental maintenance of temporal least models.

A practical extension beyond the paper: temporal databases grow — new
seed facts arrive (a new resort opens, an edge is added) — and
recomputing BT from scratch on every insertion wastes the work already
done.  For the paper's *definite* rules the least model is monotone in
the database, so an insertion is exactly a semi-naive continuation: the
new facts form the initial delta and the existing window model absorbs
their consequences.

Two wrinkles are handled:

* **window growth** — an inserted fact may lie beyond the current
  window, or move the period threshold; the model re-detects its period
  after every insertion and, when detection fails (or the certificate
  conditions stop holding), extends the window by continuing the
  fixpoint from the *frontier* (the last ``g`` slices seed the delta —
  complete for forward programs, whose derivations only look back
  ``g`` slices);
* **non-monotone programs** — rules with (stratified) negation lose
  monotonicity, so insertion falls back to recomputation (the API is
  unchanged; ``stats`` reports which path ran).

Deletion is supported for definite forward programs via the classical
**DRed** (delete-and-rederive) algorithm: overdelete everything whose
derivations might have used a removed fact, then rederive what still
has deleted-free support from the remainder; non-monotone programs fall
back to recomputation.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Union

from ..lang.atoms import Atom, Fact
from ..lang.errors import EvaluationError
from ..lang.rules import Rule, validate_rules
from ..datalog.engine import plan_order
from .bt import BTResult, bt_evaluate
from .database import TemporalDatabase
from .operator import (_head_values, continue_fixpoint, temporal_join)
from .periodicity import (Period, find_minimal_period, forward_lookback)
from .stratified import is_definite
from .store import TemporalStore


class IncrementalModel:
    """A temporal least model maintained under fact insertions."""

    def __init__(self, rules: Sequence[Rule],
                 database: Union[TemporalDatabase, Iterable[Fact]] = (),
                 max_window: int = 1 << 20,
                 stats=None, metrics=None):
        validate_rules(rules)
        self.rules = tuple(r for r in rules if not r.is_fact)
        if not isinstance(database, TemporalDatabase):
            database = TemporalDatabase(database)
        self.database = database
        self.max_window = max_window
        self._definite = is_definite(self.rules)
        self._g = max((r.temporal_depth for r in self.rules), default=1)
        self._g = max(self._g, 1)
        self._lookback = forward_lookback(self.rules)
        self.eval_stats = stats
        self.metrics = metrics
        self._result = bt_evaluate(self.rules, database,
                                   max_window=max_window,
                                   stats=stats, metrics=metrics)
        if stats is not None:
            stats.engine = "incremental"
        self.stats = {"inserts": 0, "deletes": 0, "incremental": 0,
                      "recomputed": 0, "facts_added": 0}

    # -- queries -------------------------------------------------------------

    @property
    def result(self) -> BTResult:
        return self._result

    @property
    def period(self) -> Union[Period, None]:
        return self._result.period

    def holds(self, fact: Union[Fact, Atom]) -> bool:
        return self._result.holds(fact)

    def __len__(self) -> int:
        return len(self._result.store)

    # -- mutation --------------------------------------------------------

    def insert(self, facts: Union[Fact, Iterable[Fact]]) -> None:
        """Insert facts and bring the model (and its period) up to date."""
        if isinstance(facts, Fact):
            facts = [facts]
        facts = list(facts)
        self.stats["inserts"] += 1
        for fact in facts:
            self.database.add_fact(fact)

        recompute = (
            not self._definite
            or self._lookback is None
            or any(fact.time is not None
                   and fact.time > self._result.horizon
                   for fact in facts)
        )
        if self.eval_stats is not None:
            self.eval_stats.emit("insert", facts=len(facts),
                                 path="recompute" if recompute
                                 else "incremental")
        if recompute:
            self.stats["recomputed"] += 1
            self._result = bt_evaluate(self.rules, self.database,
                                       max_window=self.max_window,
                                       stats=self.eval_stats,
                                       metrics=self.metrics)
            self._note_paths()
            return

        self.stats["incremental"] += 1
        store = self._result.store
        delta = TemporalStore()
        for fact in facts:
            if store.add_fact(fact):
                delta.add_fact(fact)
        added = continue_fixpoint(self.rules, store, delta,
                                  self._result.horizon,
                                  stats=self.eval_stats,
                                  metrics=self.metrics)
        self.stats["facts_added"] += added + len(delta)
        self._note_paths()
        self._refresh_period()

    def delete(self, facts: Union[Fact, Iterable[Fact]]) -> None:
        """Delete database facts and bring the model up to date (DRed).

        Facts not present in the database are ignored.  Definite
        programs run overdelete + rederive on the existing window model;
        stratified programs recompute.
        """
        if isinstance(facts, Fact):
            facts = [facts]
        removed = [fact for fact in facts
                   if self.database.discard_fact(fact)]
        if not removed:
            return
        self.stats.setdefault("deletes", 0)
        self.stats["deletes"] += 1

        if self.eval_stats is not None:
            self.eval_stats.emit("delete", facts=len(removed))
        if not self._definite or self._lookback is None:
            self.stats["recomputed"] += 1
            self._result = bt_evaluate(self.rules, self.database,
                                       max_window=self.max_window,
                                       stats=self.eval_stats,
                                       metrics=self.metrics)
            self._note_paths()
            return

        store = self._result.store
        horizon = self._result.horizon

        # Phase 1 — overdelete: mark everything whose derivation may
        # have used a removed fact (transitively).
        marked = TemporalStore(f for f in removed if f in store)
        frontier = marked.copy()
        plans = [
            (rule, [(i, plan_order(rule.body, first=i))
                    for i in range(len(rule.body))])
            for rule in self.rules
        ]
        while len(frontier):
            next_frontier = TemporalStore()
            for rule, leads in plans:
                for i, order in leads:
                    stores = [frontier] + [store] * (len(order) - 1)
                    for binding in temporal_join(rule.body, order,
                                                 stores):
                        pred, time, args = _head_values(rule.head,
                                                        binding)
                        if time is not None and time > horizon:
                            continue
                        if store.contains(pred, time, args) and \
                                marked.add(pred, time, args):
                            next_frontier.add(pred, time, args)
            frontier = next_frontier
        for fact in marked.facts():
            store.discard_fact(fact)

        # Phase 2 — rederive: marked facts with deleted-free support
        # seed a normal semi-naive continuation.  A marked fact that is
        # still a database fact rederives extensionally.
        delta = TemporalStore()
        for fact in marked.facts():
            if fact in self.database and store.add_fact(fact):
                delta.add_fact(fact)
        for rule, _ in plans:
            order = plan_order(rule.body)
            stores = [store] * len(order)
            for binding in temporal_join(rule.body, order, stores):
                pred, time, args = _head_values(rule.head, binding)
                if time is not None and time > horizon:
                    continue
                if marked.contains(pred, time, args):
                    if store.add(pred, time, args):
                        delta.add(pred, time, args)
        continue_fixpoint(self.rules, store, delta, horizon,
                          stats=self.eval_stats, metrics=self.metrics)
        self._note_paths()
        self._refresh_period()

    def _note_paths(self) -> None:
        """Mirror the per-operation counters into the EvalStats extras."""
        if self.eval_stats is not None:
            self.eval_stats.engine = "incremental"
            self.eval_stats.extra.update(self.stats)

    def _refresh_period(self) -> None:
        """Re-detect the period; extend the window from the frontier
        until the forwardness certificate holds again."""
        result = self._result
        c = self.database.c
        while True:
            states = result.store.states(0, result.horizon)
            found = find_minimal_period(states, floor=0, g=self._g)
            if found is not None:
                b, p = found
                if max(b, c + 1) + p + self._g - 1 <= result.horizon:
                    result.c = c
                    result.period = Period(
                        b, p, certified=True,
                        verified_horizon=result.horizon)
                    return
            if result.horizon * 2 > self.max_window:
                raise EvaluationError(
                    "window exceeded max_window while re-detecting the "
                    "period after insertion"
                )
            self._extend_window(result.horizon * 2)
            result = self._result

    def _extend_window(self, new_horizon: int) -> None:
        """Grow the window by continuing from the frontier slices.

        Complete for forward programs: any fact beyond the old horizon
        derives, within ``g`` steps, from a fact in the last ``g``
        slices of the old window or from another new fact.
        """
        store = self._result.store
        old_horizon = self._result.horizon
        delta = TemporalStore()
        for fact in store.segment(max(old_horizon - self._g + 1, 0),
                                  old_horizon):
            delta.add_fact(fact)
        for fact in store.nt.facts():
            delta.add_fact(fact)
        continue_fixpoint(self.rules, store, delta, new_horizon,
                          stats=self.eval_stats, metrics=self.metrics)
        self._result.horizon = new_horizon
