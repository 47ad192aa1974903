"""The immediate-consequence operator ``T_{Z∧D}`` for temporal rules.

Section 3.2 of the paper defines, for a set of rules ``Z`` and database
``D``::

    T_{Z∧D}(I) = {A : A = A0·θ, A0 :- A1,...,Ak ∈ Z, Ai·θ ∈ I} ∪ D

and the least model as ``LFP(Z, D) = ⋃ T^i(∅)``.  This module implements

* :func:`step` — one application of ``T_{Z∧D}`` (the naive operator used
  verbatim by algorithm BT, Figure 1), and
* :func:`fixpoint` — the least fixpoint of the operator *truncated to a
  window* ``[0..horizon]``, computed semi-naively with delta stores.

The truncated fixpoint is exactly what BT's repeat-until loop converges
to: facts beyond the window are dropped between rounds, so they can never
contribute to a derivation (a single ``T`` application cannot chain
through them).  The equivalence of the two paths is property-tested.
"""

from __future__ import annotations

from time import perf_counter
from typing import Iterator, Sequence, Union

from ..datalog.engine import plan_order
from ..datalog.facts import ArgTuple
from ..lang.atoms import Atom, Fact
from ..lang.rules import Rule
from ..lang.terms import Const, Var
from .store import TemporalStore

Binding = dict[str, Union[str, int]]


def _data_index(atom: Atom,
                binding: Binding) -> tuple[tuple[int, ...], ArgTuple]:
    """Bound data positions and their key values under ``binding``."""
    positions: list[int] = []
    key: list[Union[str, int]] = []
    for i, arg in enumerate(atom.args):
        if isinstance(arg, Const):
            positions.append(i)
            key.append(arg.value)
        elif arg.name in binding:
            positions.append(i)
            key.append(binding[arg.name])
    return tuple(positions), tuple(key)


def _extend_data(atom: Atom, args: ArgTuple,
                 binding: Binding) -> Union[Binding, None]:
    new: Union[Binding, None] = None
    for pattern, value in zip(atom.args, args):
        if isinstance(pattern, Const):
            if pattern.value != value:
                return None
        else:
            source = new if new is not None else binding
            bound = source.get(pattern.name)
            if bound is None:
                if new is None:
                    new = dict(binding)
                new[pattern.name] = value
            elif bound != value:
                return None
    return new if new is not None else binding


def _atom_matches(atom: Atom, store: TemporalStore,
                  binding: Binding) -> Iterator[Binding]:
    """Enumerate extensions of ``binding`` matching ``atom`` in ``store``."""
    positions, key = _data_index(atom, binding)

    if atom.time is None:
        for args in store.nt.lookup(atom.pred, positions, key):
            extended = _extend_data(atom, args, binding)
            if extended is not None:
                yield extended
        return

    tt = atom.time
    if tt.var is None:
        times: list[tuple[int, Union[Binding, None]]] = [(tt.offset, None)]
    elif tt.var in binding:
        base = binding[tt.var]
        assert isinstance(base, int)
        times = [(base + tt.offset, None)]
    else:
        times = []
        for t in store.times(atom.pred):
            base = t - tt.offset
            if base >= 0:
                extended = dict(binding)
                extended[tt.var] = base
                times.append((t, extended))

    for t, time_binding in times:
        effective = time_binding if time_binding is not None else binding
        for args in store.lookup_at(atom.pred, t, positions, key):
            extended = _extend_data(atom, args, effective)
            if extended is not None:
                yield extended


def temporal_join(body: Sequence[Atom], order: Sequence[int],
                  stores: Sequence[TemporalStore],
                  binding: Union[Binding, None] = None) -> Iterator[Binding]:
    """Enumerate bindings satisfying every body atom.

    ``stores[k]`` supplies the facts for the atom at ``order[k]``; the
    semi-naive path passes the delta store at position 0.
    """
    if binding is None:
        binding = {}

    def recurse(step_idx: int, binding: Binding) -> Iterator[Binding]:
        if step_idx == len(order):
            yield binding
            return
        atom = body[order[step_idx]]
        for extended in _atom_matches(atom, stores[step_idx], binding):
            yield from recurse(step_idx + 1, extended)

    return recurse(0, binding)


def _head_values(head: Atom,
                 binding: Binding) -> tuple[str, Union[int, None], ArgTuple]:
    if head.time is None:
        time: Union[int, None] = None
    elif head.time.var is None:
        time = head.time.offset
    else:
        base = binding[head.time.var]
        assert isinstance(base, int)
        time = base + head.time.offset
    args = tuple(
        binding[a.name] if isinstance(a, Var) else a.value
        for a in head.args
    )
    return head.pred, time, args


def negatives_absent(rule: Rule, binding: Binding,
                     store: TemporalStore) -> bool:
    """Check the rule's negative literals against ``store``.

    Sound as a monotone test only when the negated predicates cannot
    gain facts during the ongoing fixpoint — the stratified scheduler
    (:mod:`repro.temporal.stratified`) guarantees that.
    """
    for atom in rule.negative:
        pred, time, args = _head_values(atom, binding)
        if store.contains(pred, time, args):
            return False
    return True


def step(rules: Sequence[Rule], store: TemporalStore,
         database: Union[TemporalStore, None] = None,
         metrics=None,
         window: Union[int, None] = None) -> TemporalStore:
    """One application of ``T_{Z∧D}``: rule consequences of ``store``,
    unioned with the database ``D`` (per the paper's definition).

    Negative literals (the stratified extension) are checked against the
    input ``store`` — the standard non-monotone immediate-consequence
    operator; iterate it only under a stratified schedule.

    ``metrics`` (a :class:`~repro.obs.metrics.MetricsRegistry`)
    attributes the round's work to individual rules; ``window`` tells
    the attribution which head times the caller will truncate away, so a
    "new fact" credit matches what actually survives the round.
    """
    out = TemporalStore()
    if database is not None:
        for fact in database.facts():
            out.add_fact(fact)
    for rule in rules:
        if rule.is_fact:
            out.add_fact(rule.head.to_fact())
            continue
        rm = metrics.rule(rule) if metrics is not None else None
        if rm is not None:
            rule_t0 = perf_counter()
            rm.begin_round()
        order = plan_order(rule.body)
        stores = [store] * len(order)
        for binding in temporal_join(rule.body, order, stores):
            if rm is not None:
                rm.probes += 1
            if rule.negative and not negatives_absent(rule, binding,
                                                      store):
                continue
            pred, time, args = _head_values(rule.head, binding)
            if rm is None:
                out.add(pred, time, args)
                continue
            rm.firings += 1
            first = out.add(pred, time, args)
            if window is not None and time is not None and time > window:
                continue  # the caller truncates it; neither new nor dup
            if first and not store.contains(pred, time, args):
                rm.new_facts += 1
            else:
                rm.duplicates += 1
        if rm is not None:
            rm.seconds += perf_counter() - rule_t0
            rm.end_round()
    return out


def fixpoint(rules: Sequence[Rule], database: TemporalStore,
             horizon: int,
             max_facts: Union[int, None] = None,
             stats=None, metrics=None,
             provenance=None) -> TemporalStore:
    """Least fixpoint of the window-truncated operator, semi-naively.

    Computes the largest set ``L`` of facts with timepoints in
    ``[0..horizon]`` (plus all non-temporal facts) derivable from ``D``
    by rules whose every intermediate fact also lies within the window —
    i.e. the set algorithm BT converges to for window bound ``horizon``.

    Rules may carry negative literals only if the negated predicates are
    not derived by this rule group (the stratified scheduler arranges
    that); violating the precondition raises :class:`EvaluationError`.
    """
    negated = {a.pred for r in rules for a in r.negative}
    derived_here = {r.head.pred for r in rules}
    clash = negated & derived_here
    if clash:
        from ..lang.errors import EvaluationError
        raise EvaluationError(
            f"predicates {sorted(clash)} are both negated and derived in "
            "one fixpoint group; use stratified_fixpoint"
        )
    store = database.truncate(horizon)
    delta = store.copy()
    for rule in rules:
        if rule.is_fact:
            fact = rule.head.to_fact()
            if fact.time is not None and fact.time > horizon:
                continue
            if store.add_fact(fact):
                delta.add_fact(fact)
                if provenance is not None:
                    provenance.record(rule, fact, ())

    if stats is not None:
        if not stats.engine:
            stats.engine = "seminaive"
        stats.horizon = (horizon if stats.horizon is None
                         else max(stats.horizon, horizon))
        stats.extra["initial_facts"] = (
            stats.extra.get("initial_facts", 0) + len(store))
        stats.emit("eval_start", engine=stats.engine, horizon=horizon,
                   rules=sum(1 for r in rules if not r.is_fact),
                   initial_facts=len(store))
    continue_fixpoint(rules, store, delta, horizon,
                      max_facts=max_facts, stats=stats,
                      metrics=metrics, provenance=provenance)
    if stats is not None:
        stats.emit("eval_end", facts=len(store))
        if provenance is not None:
            provenance.export_into(stats)
    return store


def continue_fixpoint(rules: Sequence[Rule], store: TemporalStore,
                      delta: TemporalStore, horizon: int,
                      max_facts: Union[int, None] = None,
                      stats=None, metrics=None,
                      provenance=None) -> int:
    """Drive the semi-naive loop from an initial ``delta``, in place.

    Every derivation producible from ``store`` that uses at least one
    ``delta`` fact (transitively) is added to ``store``; heads beyond
    ``horizon`` are discarded.  This is both the tail of
    :func:`fixpoint` and the engine of incremental insertion
    (:mod:`repro.temporal.incremental`).  Returns the number of facts
    added.

    ``max_facts`` is a resource guard: when the store would exceed it,
    :class:`EvaluationError` is raised rather than exhausting memory —
    useful for untrusted programs whose slices blow up combinatorially.
    """
    plans: list[tuple] = []
    for rule in rules:
        if rule.is_fact:
            continue
        leads = [(i, plan_order(rule.body, first=i))
                 for i in range(len(rule.body))]
        plans.append((rule, leads,
                      metrics.rule(rule) if metrics is not None else None))

    if stats is not None:
        prev_stats = store.stats
        store.stats = stats
    added = 0
    round_no = 0
    while len(delta):
        round_no += 1
        probes = 0
        new_delta = TemporalStore()
        delta_preds = delta.temporal_predicates()
        delta_preds.update(delta.nt.predicates())
        for rule, leads, rm in plans:
            if rm is not None:
                rule_t0 = perf_counter()
                rm.begin_round()
            for i, order in leads:
                if rule.body[i].pred not in delta_preds:
                    continue
                stores = [delta] + [store] * (len(order) - 1)
                for binding in temporal_join(rule.body, order, stores):
                    probes += 1
                    if rm is not None:
                        rm.probes += 1
                    if rule.negative and not negatives_absent(
                            rule, binding, store):
                        continue
                    pred, time, args = _head_values(rule.head, binding)
                    if rm is not None:
                        rm.firings += 1
                    if time is not None and time > horizon:
                        continue
                    if store.add(pred, time, args):
                        new_delta.add(pred, time, args)
                        added += 1
                        if rm is not None:
                            rm.new_facts += 1
                        if provenance is not None:
                            provenance.record(
                                rule, Fact(pred, time, args),
                                tuple(Fact(*_head_values(a, binding))
                                      for a in rule.body),
                                tuple(Fact(*_head_values(a, binding))
                                      for a in rule.negative),
                                round_no)
                    elif rm is not None:
                        rm.duplicates += 1
            if rm is not None:
                rm.seconds += perf_counter() - rule_t0
                rm.end_round()
        if max_facts is not None and len(store) > max_facts:
            from ..lang.errors import EvaluationError
            raise EvaluationError(
                f"model exceeded max_facts={max_facts} within the "
                f"window (currently {len(store)} facts)"
            )
        if stats is not None:
            stats.record_round(len(new_delta), len(delta),
                               round=round_no, probes=probes,
                               store=len(store))
            stats.join_probes += probes
            if stats.tracer is not None:
                for fact in new_delta.facts():
                    stats.emit("fact", pred=fact.pred, time=fact.time,
                               args=list(fact.args))
        delta = new_delta
    if stats is not None:
        store.stats = prev_stats
        if metrics is not None:
            metrics.export_into(stats)
    return added
