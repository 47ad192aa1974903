"""Bottom-up evaluation of function-free Datalog (the classical substrate).

Two engines over :class:`~repro.datalog.facts.FactStore`:

* :func:`naive_evaluate` — iterate the full immediate-consequence operator
  ``T_S`` to fixpoint; the reference implementation used in tests and in
  the boundedness utilities (Theorem 6.2 talks about ``T_S^k(∅)``).
* :func:`seminaive_evaluate` — standard semi-naive evaluation with delta
  relations and greedy join ordering; the production path.

Joins order body atoms greedily by boundness and probe lazily-built hash
indexes on the bound positions (see :class:`FactStore`).
"""

from __future__ import annotations

from time import perf_counter
from typing import Iterable, Iterator, Sequence, Union

from ..lang.atoms import Fact
from ..lang.errors import ValidationError
from ..lang.rules import Rule
from ..lang.terms import Const, Var
from .facts import ArgTuple, FactStore

Binding = dict[str, Union[str, int]]


def check_datalog(rules: Sequence[Rule]) -> None:
    """Ensure the rules are plain Datalog: no temporal atoms anywhere."""
    for rule in rules:
        for atom in rule.atoms():
            if atom.time is not None:
                raise ValidationError(
                    f"rule {rule} contains temporal atom {atom}; "
                    "the Datalog engine is function-free"
                )
        if not rule.is_fact and not rule.is_range_restricted:
            raise ValidationError(f"rule {rule} is not range-restricted")
        if not rule.is_safe:
            raise ValidationError(
                f"rule {rule} is not safe: negative literals must be "
                "bound by positive ones"
            )


def _negatives_absent(rule: Rule, binding: Binding,
                      store: FactStore) -> bool:
    """Check the rule's negative literals against ``store`` — sound
    when the negated predicates are frozen (stratified scheduling)."""
    for atom in rule.negative:
        pred, args = _head_fact(atom, binding)
        if store.contains(pred, args):
            return False
    return True


def plan_order(body: Sequence, first: Union[int, None] = None) -> list[int]:
    """Greedy join order over body atoms, cheapest-first.

    Returns indexes into ``body``.  When ``first`` is given, that atom
    leads (used by semi-naive evaluation to put the delta atom first).
    Ordering delegates to the static cost model
    (:func:`repro.analysis.static.cost.cost_order`): at each step the
    atom with the fewest expected matches under the current bindings is
    chosen; ties break towards textual order.  Every engine (generic
    and compiled) routes through this function, so same-round index
    visibility — which depends on join order — stays identical across
    engines.
    """
    from ..analysis.static.cost import cost_order
    return list(cost_order(body, first=first).order)


def _extend_binding(atom, args: ArgTuple,
                    binding: Binding) -> Union[Binding, None]:
    """Extend ``binding`` so that ``atom``'s data args match ``args``."""
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


def _candidates(atom, store: FactStore,
                binding: Binding) -> Iterator[ArgTuple]:
    positions: list[int] = []
    key: list[Union[str, int]] = []
    for i, arg in enumerate(atom.args):
        if isinstance(arg, Const):
            positions.append(i)
            key.append(arg.value)
        elif arg.name in binding:
            positions.append(i)
            key.append(binding[arg.name])
    yield from store.lookup(atom.pred, tuple(positions), tuple(key))


def join(body: Sequence, order: Sequence[int], stores: Sequence[FactStore],
         binding: Union[Binding, None] = None) -> Iterator[Binding]:
    """Enumerate bindings satisfying all body atoms.

    ``stores[k]`` supplies the facts for the atom at ``order[k]`` —
    passing the delta store for position 0 and the full store elsewhere
    yields the semi-naive rule firing.
    """
    if binding is None:
        binding = {}

    def recurse(step: int, binding: Binding) -> Iterator[Binding]:
        if step == len(order):
            yield binding
            return
        atom = body[order[step]]
        store = stores[step]
        for args in _candidates(atom, store, binding):
            extended = _extend_binding(atom, args, binding)
            if extended is not None:
                yield from recurse(step + 1, extended)

    return recurse(0, binding)


def _head_fact(head, binding: Binding) -> tuple[str, ArgTuple]:
    args = tuple(
        binding[a.name] if isinstance(a, Var) else a.value
        for a in head.args
    )
    return head.pred, args


def _record_support(provenance, rule: Rule, pred: str, args: ArgTuple,
                    binding: Binding, round_no: int) -> None:
    """Materialize the rule instance behind one new fact and record it.

    Only called when a provenance store is attached, so the disabled
    path never builds premise facts.
    """
    def ground(atom) -> Fact:
        apred, aargs = _head_fact(atom, binding)
        return Fact(apred, None, aargs)

    provenance.record(rule, Fact(pred, None, args),
                      tuple(ground(a) for a in rule.body),
                      tuple(ground(a) for a in rule.negative), round_no)


def immediate_consequences(rules: Sequence[Rule],
                           store: FactStore,
                           metrics=None) -> FactStore:
    """One application of the immediate-consequence operator ``T_S``.

    Returns ``T_S(store)`` *including* the facts re-derivable from rules
    with empty bodies; the caller unions in the EDB as the paper's
    operator definition does.

    With ``metrics``, a new fact is credited to its *first* producer in
    rule order (later producers of the same fact count duplicates), so
    per-rule ``new_facts`` sums to the round's growth.
    """
    out = FactStore()
    for rule in rules:
        rm = metrics.rule(rule) if metrics is not None else None
        if rule.is_fact:
            pred, args = _head_fact(rule.head, {})
            if rm is None:
                out.add(pred, args)
                continue
            rm.firings += 1
            if out.add(pred, args) and not store.contains(pred, args):
                rm.new_facts += 1
            else:
                rm.duplicates += 1
            continue
        if rm is not None:
            rule_t0 = perf_counter()
            rm.begin_round()
        order = plan_order(rule.body)
        stores = [store] * len(order)
        for binding in join(rule.body, order, stores):
            if rm is not None:
                rm.probes += 1
            if rule.negative and not _negatives_absent(rule, binding,
                                                       store):
                continue
            pred, args = _head_fact(rule.head, binding)
            if rm is None:
                out.add(pred, args)
                continue
            rm.firings += 1
            if out.add(pred, args) and not store.contains(pred, args):
                rm.new_facts += 1
            else:
                rm.duplicates += 1
        if rm is not None:
            rm.seconds += perf_counter() - rule_t0
            rm.end_round()
    return out


def _naive_group(rules: Sequence[Rule], store: FactStore,
                 max_iterations: Union[int, None] = None,
                 stats=None, metrics=None) -> None:
    """Naive iteration of one (stratum's) rule group, in place."""
    iterations = 0
    while True:
        iterations += 1
        if max_iterations is not None and iterations > max_iterations:
            break
        derived = immediate_consequences(rules, store, metrics=metrics)
        changed = 0
        for fact in derived.facts():
            if store.add(fact.pred, fact.args):
                changed += 1
        if stats is not None:
            stats.record_round(changed, round=iterations,
                               store=len(store))
        if not changed:
            break


def _strata(rules: Sequence[Rule]) -> "list[list[Rule]]":
    """One group for definite programs; stratified groups otherwise."""
    if all(rule.is_definite for rule in rules):
        return [list(rules)] if rules else []
    from .depgraph import strata_of_rules
    try:
        groups = strata_of_rules(rules)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc
    facts = [r for r in rules if r.is_fact]
    if facts and groups:
        groups[0] = facts + groups[0]
    elif facts:
        groups = [facts]
    return groups


def naive_evaluate(rules: Sequence[Rule], edb: Iterable[Fact],
                   max_iterations: Union[int, None] = None,
                   stats=None, metrics=None) -> FactStore:
    """The (perfect) model by naive iteration, stratum by stratum.

    For definite programs this is the least fixpoint ``⋃ T_S^i(∅) ∪ D``;
    programs with (stratifiable) negation get the standard perfect-model
    semantics.
    """
    check_datalog(rules)
    store = FactStore(edb)
    if stats is not None:
        stats.engine = "datalog_naive"
        stats.extra["initial_facts"] = len(store)
        store.stats = stats
    for group in _strata(rules):
        _naive_group(group, store, max_iterations, stats=stats,
                     metrics=metrics)
    if metrics is not None and stats is not None:
        metrics.export_into(stats)
    store.stats = None
    return store


def _seminaive_group(rules: Sequence[Rule], store: FactStore,
                     stats=None, metrics=None,
                     provenance=None) -> None:
    """Semi-naive iteration of one (stratum's) rule group, in place."""
    # Round 0 below joins against the full store, so the initial delta
    # only needs the facts it introduces.  It is recorded as round 0 in
    # stats/trace so facts_derived reconciles with the final store size
    # and per-rule new_facts credits stay exhaustive.
    initial = len(store)
    probes0 = 0
    delta = FactStore()
    for rule in rules:
        if rule.is_fact:
            rm = metrics.rule(rule) if metrics is not None else None
            pred, args = _head_fact(rule.head, {})
            if rm is not None:
                rm.firings += 1
            if store.add(pred, args):
                delta.add(pred, args)
                if rm is not None:
                    rm.new_facts += 1
                if provenance is not None:
                    provenance.record(rule, Fact(pred, None, args), ())
            elif rm is not None:
                rm.duplicates += 1
    for rule in rules:
        if rule.is_fact:
            continue
        rm = metrics.rule(rule) if metrics is not None else None
        if rm is not None:
            rule_t0 = perf_counter()
            rm.begin_round()
        order = plan_order(rule.body)
        for binding in join(rule.body, order, [store] * len(order)):
            probes0 += 1
            if rm is not None:
                rm.probes += 1
            if rule.negative and not _negatives_absent(rule, binding,
                                                       store):
                continue
            pred, args = _head_fact(rule.head, binding)
            if rm is not None:
                rm.firings += 1
            if store.add(pred, args):
                delta.add(pred, args)
                if rm is not None:
                    rm.new_facts += 1
                if provenance is not None:
                    _record_support(provenance, rule, pred, args,
                                    binding, 0)
            elif rm is not None:
                rm.duplicates += 1
        if rm is not None:
            rm.seconds += perf_counter() - rule_t0
            rm.end_round()
    if stats is not None:
        stats.record_round(len(delta), initial, round=0, probes=probes0,
                           store=len(store))
        stats.join_probes += probes0

    # Precompute, per rule, the plans that lead with each body position.
    plans: list[tuple] = []
    for rule in rules:
        if rule.is_fact:
            continue
        leads = [(i, plan_order(rule.body, first=i))
                 for i in range(len(rule.body))]
        plans.append((rule, leads,
                      metrics.rule(rule) if metrics is not None else None))

    round_no = 0
    while len(delta):
        round_no += 1
        probes = 0
        new_delta = FactStore()
        delta_preds = delta.predicates()
        for rule, leads, rm in plans:
            if rm is not None:
                rule_t0 = perf_counter()
                rm.begin_round()
            for i, order in leads:
                if rule.body[i].pred not in delta_preds:
                    continue
                stores = [delta] + [store] * (len(order) - 1)
                for binding in join(rule.body, order, stores):
                    probes += 1
                    if rm is not None:
                        rm.probes += 1
                    if rule.negative and not _negatives_absent(
                            rule, binding, store):
                        continue
                    pred, args = _head_fact(rule.head, binding)
                    if rm is not None:
                        rm.firings += 1
                    if store.add(pred, args):
                        new_delta.add(pred, args)
                        if rm is not None:
                            rm.new_facts += 1
                        if provenance is not None:
                            _record_support(provenance, rule, pred,
                                            args, binding, round_no)
                    elif rm is not None:
                        rm.duplicates += 1
            if rm is not None:
                rm.seconds += perf_counter() - rule_t0
                rm.end_round()
        if stats is not None:
            stats.record_round(len(new_delta), len(delta),
                               round=round_no, probes=probes,
                               store=len(store))
            stats.join_probes += probes
        delta = new_delta


def seminaive_evaluate(rules: Sequence[Rule], edb: Iterable[Fact],
                       stats=None, metrics=None,
                       provenance=None) -> FactStore:
    """The (perfect) model by semi-naive iteration with delta relations.

    Matches :func:`naive_evaluate` (property-tested); programs with
    stratifiable negation are scheduled stratum by stratum so the
    negation checks stay stable within each fixpoint.  ``provenance``
    (a :class:`repro.obs.provenance.ProvenanceStore`) records a support
    edge for every derived fact.
    """
    check_datalog(rules)
    store = FactStore(edb)
    if stats is not None:
        stats.engine = "datalog_seminaive"
        stats.extra["initial_facts"] = len(store)
        store.stats = stats
    for group in _strata(rules):
        _seminaive_group(group, store, stats=stats, metrics=metrics,
                         provenance=provenance)
    if metrics is not None and stats is not None:
        metrics.export_into(stats)
    if provenance is not None and stats is not None:
        provenance.export_into(stats)
    store.stats = None
    return store
