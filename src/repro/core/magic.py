"""Magic-sets rewriting for temporal rules (the paper's Section 8).

Section 8 closes with: "various methods of rule rewriting devised for
DATALOG [15] might be applicable to temporal rules as well."  This module
carries that out: the classical *basic magic sets* transformation,
adapted to the temporal argument, turns a ground-time query into a
rewritten ruleset whose bottom-up evaluation only derives facts relevant
to the query — goal-directed evaluation on top of the unchanged
semi-naive engine.

Adaptation notes:

* the temporal argument participates in adornments like an ordinary
  argument (bound when the query's temporal term is ground, propagated
  through the rule's shared temporal variable);
* magic rules run *backwards* in time (a bound query time ``t0`` seeds
  magic facts at ``t0`` and derivation walks down towards 0), which the
  window-truncated engine evaluates exactly: every relevant fact lives
  in ``[0, t0 + g]``;
* the sideways information passing strategy is left-to-right over the
  rule body as written, with EDB atoms passed through unadorned —
  the textbook "basic" variant.

Restricted to definite rules (magic sets with stratified negation needs
care with the magic predicates' strata and is out of scope).

Entry points: :func:`magic_transform` for the rewritten program,
:func:`magic_ask` for a one-shot goal-directed ground query, used by
benchmark E11 as the goal-directed baseline against full BT.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

from ..datalog.depgraph import derived_predicates
from ..lang.atoms import Atom, Fact
from ..lang.errors import ClassificationError
from ..lang.rules import Rule
from ..lang.terms import Const, TimeTerm, Var
from ..temporal.database import TemporalDatabase
from ..temporal.operator import fixpoint
from ..temporal.store import TemporalStore

#: An adornment: (time_bound, per-data-argument boundness).
Adornment = tuple[bool, tuple[bool, ...]]


def _adorn_string(adornment: Adornment) -> str:
    time_bound, args = adornment
    return ("t" if time_bound else "u") + "".join(
        "b" if bound else "f" for bound in args)


def _adorned_name(pred: str, adornment: Adornment) -> str:
    return f"{pred}@{_adorn_string(adornment)}"


def _magic_name(pred: str, adornment: Adornment) -> str:
    return f"_m_{pred}@{_adorn_string(adornment)}"


def _atom_adornment(atom: Atom, bound_vars: set[str]) -> Adornment:
    time_bound = atom.time is not None and (
        atom.time.is_ground or atom.time.var in bound_vars)
    args = tuple(
        isinstance(arg, Const) or arg.name in bound_vars
        for arg in atom.args
    )
    return (time_bound, args)


def _magic_atom(atom: Atom, adornment: Adornment) -> Union[Atom, None]:
    """The magic atom carrying the bound arguments of ``atom``.

    Returns None when nothing is bound (the magic seed is universally
    true, so the guard is dropped and evaluation degenerates to full
    bottom-up for that predicate — standard behaviour).
    """
    time_bound, arg_bounds = adornment
    time = atom.time if time_bound else None
    args = tuple(arg for arg, bound in zip(atom.args, arg_bounds)
                 if bound)
    if time is None and not args:
        return None
    return Atom(_magic_name(atom.pred, adornment), time, args)


def _adorned_atom(atom: Atom, adornment: Adornment) -> Atom:
    return Atom(_adorned_name(atom.pred, adornment), atom.time,
                atom.args)


@dataclass
class MagicProgram:
    """The output of the magic transformation."""

    rules: list[Rule]
    seeds: list[Fact]
    query_pred: str           # adorned name answering the query
    original_pred: str

    def all_rules(self) -> list[Rule]:
        return self.rules


def magic_transform(rules: Sequence[Rule], query: Atom) -> MagicProgram:
    """Rewrite ``rules`` for goal-directed evaluation of ``query``.

    ``query`` is an atom whose ground positions (temporal term and/or
    constant data arguments) become the bound adornment; variables stay
    free and are answered.
    """
    proper = [r for r in rules if not r.is_fact]
    if any(not r.is_definite for r in proper):
        raise ClassificationError(
            "magic sets are implemented for definite rules"
        )
    idb = derived_predicates(proper)
    by_head: dict[str, list[Rule]] = {}
    for rule in proper:
        by_head.setdefault(rule.head.pred, []).append(rule)

    query_adornment = _atom_adornment(query, set())
    out_rules: list[Rule] = []
    done: set[tuple[str, Adornment]] = set()
    worklist: list[tuple[str, Adornment]] = [(query.pred,
                                              query_adornment)]

    while worklist:
        pred, adornment = worklist.pop()
        if (pred, adornment) in done:
            continue
        done.add((pred, adornment))
        for index, rule in enumerate(by_head.get(pred, [])):
            out_rules.extend(
                _rewrite_rule(rule, adornment, idb, worklist,
                              unique=f"{pred}_{index}")
            )

    # Bridge rules: a derived predicate may also have database facts
    # (the travel example seeds `plane` extensionally); copy them into
    # the adorned predicate, guarded by the magic set.
    arities: dict[str, tuple[bool, int]] = {}
    for rule in proper:
        for atom in rule.atoms():
            arities[atom.pred] = (atom.is_temporal, atom.arity)
    if query.pred not in arities:
        arities[query.pred] = (query.time is not None, query.arity)
    for pred, adornment in sorted(done):
        temporal, arity = arities[pred]
        time = TimeTerm("T", 0) if temporal else None
        args = tuple(Var(f"X{i}") for i in range(arity))
        generic = Atom(pred, time, args)
        guard = _magic_atom(generic, adornment)
        body = (generic,) if guard is None else (guard, generic)
        out_rules.append(Rule(_adorned_atom(generic, adornment), body))

    seed_atom = _magic_atom(query, query_adornment)
    seeds: list[Fact] = []
    if seed_atom is not None:
        seeds.append(seed_atom.to_fact())
    return MagicProgram(
        rules=out_rules,
        seeds=seeds,
        query_pred=_adorned_name(query.pred, query_adornment),
        original_pred=query.pred,
    )


def _rewrite_rule(rule: Rule, adornment: Adornment, idb: set[str],
                  worklist: list, unique: str) -> list[Rule]:
    """Adorned + magic rules for one original rule under one adornment."""
    head = rule.head
    time_bound, arg_bounds = adornment

    bound_vars: set[str] = set()
    if time_bound and head.time is not None and head.time.var is not None:
        bound_vars.add(head.time.var)
    for arg, bound in zip(head.args, arg_bounds):
        if bound and isinstance(arg, Var):
            bound_vars.add(arg.name)

    magic_head = _magic_atom(head, adornment)
    prefix: list[Atom] = [] if magic_head is None else [magic_head]
    new_body: list[Atom] = list(prefix)
    produced: list[Rule] = []
    # Rewritten rules inherit the original rule's span so per-rule
    # profiling and diagnostics still cite the source line.
    span = rule.span if rule.span is not None else rule.head.span

    for atom in rule.body:
        if atom.pred in idb:
            sub_adornment = _atom_adornment(atom, bound_vars)
            sub_magic = _magic_atom(atom, sub_adornment)
            if sub_magic is not None:
                produced.append(Rule(sub_magic, tuple(new_body),
                                     span=span))
            worklist.append((atom.pred, sub_adornment))
            new_body.append(_adorned_atom(atom, sub_adornment))
        else:
            new_body.append(atom)
        if atom.time is not None and atom.time.var is not None:
            bound_vars.add(atom.time.var)
        bound_vars.update(v.name for v in atom.data_variables())

    produced.append(Rule(_adorned_atom(head, adornment),
                         tuple(new_body), span=span))
    return produced


def magic_evaluate(rules: Sequence[Rule], database: TemporalDatabase,
                   query: Atom,
                   horizon: Union[int, None] = None,
                   stats=None, metrics=None) -> TemporalStore:
    """Evaluate the magic-rewritten program for ``query``.

    ``horizon`` defaults to ``max(query time, database depth) + g`` —
    exact for a ground query time, because magic derivations only walk
    backwards from it and answers climb back up to it.  Queries with an
    unbound temporal term need an explicit horizon (their answer set
    may reach arbitrarily far).
    """
    from ..obs.stats import phase_timer
    with phase_timer(stats, "magic_rewrite"):
        program = magic_transform(rules, query)
    if stats is not None:
        stats.engine = "magic"
        stats.extra["magic_rules"] = len(program.rules)
        stats.extra["magic_seeds"] = len(program.seeds)
    if horizon is None:
        if query.time is not None and not query.time.is_ground:
            raise ClassificationError(
                "queries with a free temporal term need an explicit "
                "horizon (their relevant region is unbounded)"
            )
        g = max((r.temporal_depth for r in rules), default=1)
        query_depth = query.time.offset if query.time is not None else 0
        horizon = max(query_depth, database.c) + g
    seeded = TemporalDatabase(database.facts())
    for seed in program.seeds:
        seeded.add_fact(seed)
    # Magic rules carry ground seeds and can be non-range-restricted in
    # the syntactic sense (a magic head with no body); evaluate without
    # the paper-level validator.
    return fixpoint(program.rules, seeded, horizon, stats=stats,
                    metrics=metrics)


def magic_ask(rules: Sequence[Rule], database: TemporalDatabase,
              goal: Union[Fact, Atom],
              stats=None, metrics=None) -> bool:
    """Goal-directed ground atomic query via magic sets.

    Equivalent to ``bt_evaluate(...).holds(goal)`` (property-tested) but
    only derives facts relevant to ``goal``.
    """
    if isinstance(goal, Fact):
        goal = goal.to_atom()
    if not goal.is_ground:
        raise ClassificationError("magic_ask expects a ground goal")
    store = magic_evaluate(rules, database, goal, stats=stats,
                           metrics=metrics)
    program_pred = _adorned_name(goal.pred, _atom_adornment(goal, set()))
    answer = Fact(program_pred,
                  goal.time.offset if goal.time is not None else None,
                  tuple(a.value for a in goal.args))  # type: ignore
    if answer in store:
        return True
    # The goal may be a database fact of an EDB predicate.
    return goal.to_fact() in database
