"""The compiled semi-naive loop: replaying join plans each round.

:func:`compile_program` turns a rule set into a
:class:`CompiledProgram` — one :class:`JoinPlan` per (rule, lead-atom)
pair, a shared :class:`~repro.datalog.compiled.symbols.SymbolTable`, and
the index registry the plans probe.  Compilation is cached (LRU, keyed
on the tuple of proper rules, which hash structurally and ignore source
spans), so the iterative-deepening loop of algorithm BT and repeated
``QueryService`` requests pay it once.

:func:`compiled_fixpoint` is a drop-in for
:func:`repro.temporal.operator.fixpoint`: same signature, same window
truncation, same round structure, and — deliberately — the same
observable accounting.  ``EvalStats`` rounds/deltas/probes,
``Tracer`` events, and per-rule ``MetricsRegistry`` credit (probes per
complete binding, firings before the horizon gate, new vs duplicate)
all match the generic engine fact for fact, which is what the
differential battery in ``tests/test_compiled_differential.py`` pins
down.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from time import perf_counter
from typing import Sequence, Union

from ...lang.atoms import Fact
from ...lang.errors import EvaluationError
from ...lang.rules import Rule
from .plans import JoinPlan, compile_plan
from .store import CompiledStore
from .symbols import SymbolTable


@dataclass
class CompiledProgram:
    """Everything reusable across evaluations of one rule set."""

    rules: tuple[Rule, ...]  # the proper (non-fact) rules, input order
    symbols: SymbolTable
    plans: tuple[tuple[JoinPlan, ...], ...]  # plans[i] belongs to rules[i]
    registered: dict[str, tuple[tuple[int, ...], ...]]
    #: Lazily compiled provenance-capturing twins of ``plans`` (see
    #: ``compile_plan(..., capture=True)``); built on first use so the
    #: provenance-off path pays nothing.
    _capture: object = field(default=None, repr=False)

    def describe(self) -> list[str]:
        """One line per plan — what ``repro profile`` prints."""
        return [plan.describe()
                for per_rule in self.plans for plan in per_rule]

    def capture_plans(self) -> tuple:
        """Capture variants of every plan, compiled once per program.

        The index registry is already frozen (pass 1 of compilation saw
        every probe), so re-registration is a no-op.
        """
        if self._capture is None:
            def noop(pred, positions):
                return None
            self._capture = tuple(
                tuple(compile_plan(rule, lead, self.symbols, noop,
                                   self.registered.get(rule.head.pred,
                                                       ()),
                                   plan_name=f"_c{k}_{lead}",
                                   capture=True)
                      for lead in range(len(rule.body)))
                for k, rule in enumerate(self.rules)
            )
        return self._capture


@lru_cache(maxsize=128)
def _compile_cached(proper: tuple[Rule, ...]) -> CompiledProgram:
    symbols = SymbolTable()
    registered: dict[str, list[tuple[int, ...]]] = {}

    def register(pred: str, positions: tuple[int, ...]) -> None:
        sets = registered.setdefault(pred, [])
        if positions not in sets:
            sets.append(positions)

    # Pass 1: analyze every plan to learn the full index registry (a
    # head emit must maintain every index on its predicate, including
    # ones demanded by plans analyzed later).
    for k, rule in enumerate(proper):
        for lead in range(len(rule.body)):
            compile_plan(rule, lead, symbols, register, (),
                         plan_name=f"_p{k}_{lead}", render_only=True)
    frozen = {pred: tuple(sets) for pred, sets in registered.items()}
    # Pass 2: render and exec, with head-index maintenance unrolled.
    plans = tuple(
        tuple(compile_plan(rule, lead, symbols, register,
                           frozen.get(rule.head.pred, ()),
                           plan_name=f"_p{k}_{lead}")
              for lead in range(len(rule.body)))
        for k, rule in enumerate(proper)
    )
    return CompiledProgram(rules=proper, symbols=symbols, plans=plans,
                           registered=frozen)


def compile_program(rules: Sequence[Rule]) -> CompiledProgram:
    """The compiled form of ``rules`` (facts excluded), LRU-cached."""
    return _compile_cached(tuple(r for r in rules if not r.is_fact))


def _record_captured(provenance, rule, captured, values,
                     round_no: int) -> None:
    """Translate one plan call's captured tuples into support edges.

    ``captured`` rows are ``(head_time, head_row, body, neg)`` with
    interned-int rows; ``values`` resolves ids back to symbols.  Only
    called when provenance is on, so the fast path never sees it.
    """
    head_pred = rule.head.pred
    for ht, hr, body, neg in captured:
        provenance.record(
            rule,
            Fact(head_pred, ht, tuple(values[i] for i in hr)),
            tuple(Fact(p, t, tuple(values[i] for i in r))
                  for p, t, r in body),
            tuple(Fact(p, t, tuple(values[i] for i in r))
                  for p, t, r in neg),
            round_no)


def compiled_fixpoint(rules: Sequence[Rule], database,
                      horizon: int,
                      max_facts: Union[int, None] = None,
                      stats=None, metrics=None,
                      provenance=None):
    """Least fixpoint of the window-truncated operator, compiled.

    Semantics (and the raised errors) match
    :func:`repro.temporal.operator.fixpoint` exactly; only the inner
    machinery differs.  Returns a fresh
    :class:`~repro.temporal.store.TemporalStore`.

    ``provenance`` swaps in capture variants of the join plans that
    surface every matched body tuple; with ``provenance=None`` the
    plain plans run and the round loop is unchanged.
    """
    negated = {a.pred for r in rules for a in r.negative}
    derived_here = {r.head.pred for r in rules}
    clash = negated & derived_here
    if clash:
        raise EvaluationError(
            f"predicates {sorted(clash)} are both negated and derived in "
            "one fixpoint group; use stratified_fixpoint"
        )
    program = compile_program(rules)
    store = CompiledStore(program.symbols, program.registered)
    store.load(database, horizon)
    for rule in rules:
        if rule.is_fact:
            fact = rule.head.to_fact()
            if fact.time is not None and fact.time > horizon:
                continue
            if store.add_fact(fact) and provenance is not None:
                provenance.record(rule, fact, ())

    if stats is not None:
        if not stats.engine:
            stats.engine = "compiled"
        stats.horizon = (horizon if stats.horizon is None
                         else max(stats.horizon, horizon))
        stats.extra["initial_facts"] = (
            stats.extra.get("initial_facts", 0) + store.count)
        stats.emit("eval_start", engine=stats.engine, horizon=horizon,
                   rules=len(program.rules), initial_facts=store.count)

    # Attribute metrics to the *caller's* rule objects: the cached
    # program may hold structurally-equal rules from an earlier caller,
    # and the registry keys records by object identity.
    proper = [r for r in rules if not r.is_fact]
    records = [metrics.rule(r) if metrics is not None else None
               for r in proper]
    # Bind every plan to this store once (baking its relation and index
    # dicts in as argument defaults); the round loop touches only tuples.
    plan_sets = (program.plans if provenance is None
                 else program.capture_plans())
    dispatch = [
        (rm, rule, tuple((plan.lead_pred, plan.bind(store))
                         for plan in per_rule))
        for per_rule, rm, rule in zip(plan_sets, records, proper)
    ]

    # Without per-rule metrics the round loop needs no per-rule
    # bookkeeping; flatten the dispatch (same plan order — execution
    # order is observable through same-round index visibility).
    fast = None
    if metrics is None and provenance is None:
        fast = [pair for _, _, plan_fns in dispatch for pair in plan_fns]
    # No new symbols appear during the rounds (head args project body
    # values), so one resolution serves every captured row.
    values = (program.symbols.resolve_all() if provenance is not None
              else None)

    delta_rel = store.snapshot_rel()
    delta_count = store.count
    round_no = 0
    while delta_count:
        round_no += 1
        probes = 0
        derived = 0
        out: dict = {}
        delta_get = delta_rel.get
        if fast is not None:
            for lead_pred, fn in fast:
                lead_delta = delta_get(lead_pred)
                if not lead_delta:
                    continue
                p, f, new, dup = fn(lead_delta, out, horizon)
                probes += p
                store.count += new
                derived += new
        else:
            for rm, rule, plan_fns in dispatch:
                if rm is not None:
                    rule_t0 = perf_counter()
                    rm.begin_round()
                for lead_pred, fn in plan_fns:
                    lead_delta = delta_get(lead_pred)
                    if not lead_delta:
                        continue
                    if provenance is None:
                        p, f, new, dup = fn(lead_delta, out, horizon)
                    else:
                        captured: list = []
                        p, f, new, dup = fn(lead_delta, out, horizon,
                                            captured)
                        if captured:
                            _record_captured(provenance, rule,
                                             captured, values,
                                             round_no)
                    probes += p
                    store.count += new
                    derived += new
                    if rm is not None:
                        rm.probes += p
                        rm.firings += f
                        rm.new_facts += new
                        rm.duplicates += dup
                if rm is not None:
                    rm.seconds += perf_counter() - rule_t0
                    rm.end_round()
        if max_facts is not None and store.count > max_facts:
            raise EvaluationError(
                f"model exceeded max_facts={max_facts} within the "
                f"window (currently {store.count} facts)"
            )
        if stats is not None:
            stats.record_round(derived, delta_count, round=round_no,
                               probes=probes, store=store.count)
            stats.join_probes += probes
            if stats.tracer is not None:
                values = program.symbols.resolve_all()
                for pred, slices in out.items():
                    for time, rows in slices.items():
                        for row in rows:
                            stats.emit("fact", pred=pred, time=time,
                                       args=[values[i] for i in row])
        delta_rel = out
        delta_count = derived

    if stats is not None:
        if metrics is not None:
            metrics.export_into(stats)
        if provenance is not None:
            provenance.export_into(stats)
        stats.emit("eval_end", facts=store.count)
    return store.to_temporal_store()


__all__ = ["CompiledProgram", "compile_program", "compiled_fixpoint"]
