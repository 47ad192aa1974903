"""Interval-coalesced bottom-up evaluation.

The slice engine of :mod:`repro.temporal.operator` touches every
timepoint individually; workloads whose predicates hold over long runs
(the travel example's 90-day seasons, maintenance windows, ...) do the
same work once per day.  This engine instead represents each tuple's
timepoints as an :class:`IntervalSet` — a sorted sequence of disjoint
closed intervals — and fires rules with set algebra:

    for a rule  H(T+k0) :- B1(T+k1), ..., Bn(T+kn), nt-atoms
    and one data binding of the body,
        T-set = ⋂ᵢ shift(times(Bᵢ tuple), -kᵢ)
        head tuple gains  clip(shift(T-set, +k0), 0, horizon)

so a 90-day season contributes one interval operation instead of 90
slice operations.  Supported fragment: definite, range-restricted,
semi-normal rules (one temporal variable; any offsets — forward or
backward).  Results equal the slice engine's window fixpoint exactly
(property-tested); benchmark E15 measures the gap.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Iterable, Iterator, Sequence, Union

from ..datalog.facts import ArgTuple, FactStore
from ..lang.atoms import Atom
from ..lang.errors import EvaluationError
from ..lang.rules import Rule, validate_rules
from ..lang.terms import Const, Var
from .database import TemporalDatabase
from .store import TemporalStore

Interval = tuple[int, int]


@dataclass(frozen=True)
class IntervalSet:
    """An immutable set of timepoints as disjoint sorted intervals."""

    intervals: tuple[Interval, ...] = ()

    @classmethod
    def from_points(cls, points: Iterable[int]) -> "IntervalSet":
        ordered = sorted(set(points))
        if not ordered:
            return cls()
        out = []
        start = prev = ordered[0]
        for t in ordered[1:]:
            if t == prev + 1:
                prev = t
                continue
            out.append((start, prev))
            start = prev = t
        out.append((start, prev))
        return cls(tuple(out))

    @classmethod
    def point(cls, t: int) -> "IntervalSet":
        return cls(((t, t),))

    @classmethod
    def span(cls, lo: int, hi: int) -> "IntervalSet":
        return cls() if hi < lo else cls(((lo, hi),))

    def __bool__(self) -> bool:
        return bool(self.intervals)

    def __contains__(self, t: int) -> bool:
        # Binary search over the disjoint sorted intervals.
        lo, hi = 0, len(self.intervals) - 1
        while lo <= hi:
            mid = (lo + hi) // 2
            a, b = self.intervals[mid]
            if t < a:
                hi = mid - 1
            elif t > b:
                lo = mid + 1
            else:
                return True
        return False

    def cardinality(self) -> int:
        return sum(b - a + 1 for a, b in self.intervals)

    def points(self) -> Iterator[int]:
        for a, b in self.intervals:
            yield from range(a, b + 1)

    def shift(self, delta: int) -> "IntervalSet":
        return IntervalSet(tuple(
            (a + delta, b + delta) for a, b in self.intervals))

    def clip(self, lo: int, hi: int) -> "IntervalSet":
        out = []
        for a, b in self.intervals:
            a2, b2 = max(a, lo), min(b, hi)
            if a2 <= b2:
                out.append((a2, b2))
        return IntervalSet(tuple(out))

    def union(self, other: "IntervalSet") -> "IntervalSet":
        if not other.intervals:
            return self
        if not self.intervals:
            return other
        merged = sorted(self.intervals + other.intervals)
        out = [merged[0]]
        for a, b in merged[1:]:
            la, lb = out[-1]
            if a <= lb + 1:
                out[-1] = (la, max(lb, b))
            else:
                out.append((a, b))
        return IntervalSet(tuple(out))

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        out = []
        i = j = 0
        mine, theirs = self.intervals, other.intervals
        while i < len(mine) and j < len(theirs):
            a = max(mine[i][0], theirs[j][0])
            b = min(mine[i][1], theirs[j][1])
            if a <= b:
                out.append((a, b))
            if mine[i][1] < theirs[j][1]:
                i += 1
            else:
                j += 1
        return IntervalSet(tuple(out))

    def __str__(self) -> str:
        return "{" + ", ".join(
            f"{a}..{b}" if b > a else str(a)
            for a, b in self.intervals) + "}"


class IntervalStore:
    """Per-(predicate, tuple) interval sets plus a non-temporal part."""

    def __init__(self) -> None:
        self._temporal: dict[str, dict[ArgTuple, IntervalSet]] = {}
        self.nt = FactStore()

    def times(self, pred: str, args: ArgTuple) -> IntervalSet:
        return self._temporal.get(pred, {}).get(args, IntervalSet())

    def tuples(self, pred: str) -> "dict[ArgTuple, IntervalSet]":
        return self._temporal.get(pred, {})

    def merge(self, pred: str, args: ArgTuple,
              times: IntervalSet) -> bool:
        """Union new times in; True when the set actually grew."""
        if not times:
            return False
        table = self._temporal.setdefault(pred, {})
        current = table.get(args, IntervalSet())
        merged = current.union(times)
        if merged.intervals == current.intervals:
            return False
        table[args] = merged
        return True

    def to_store(self) -> TemporalStore:
        """Expand into the slice representation (for period detection,
        comparisons, and the rest of the pipeline)."""
        store = TemporalStore()
        for pred, table in self._temporal.items():
            for args, times in table.items():
                for t in times.points():
                    store.add(pred, t, args)
        for fact in self.nt.facts():
            store.add_fact(fact)
        return store


def _check_fragment(rules: Sequence[Rule]) -> None:
    for rule in rules:
        if rule.is_fact:
            continue
        if not rule.is_definite:
            raise EvaluationError(
                "the interval engine handles definite rules"
            )
        if not rule.is_semi_normal:
            raise EvaluationError(
                f"rule {rule} has several temporal variables; "
                "normalize to semi-normal form first"
            )


def _data_bindings(atoms: Sequence[Atom], store: IntervalStore,
                   binding: dict) -> Iterator[dict]:
    """Enumerate data-level bindings; time is handled separately."""
    if not atoms:
        yield binding
        return
    atom, rest = atoms[0], atoms[1:]
    if atom.time is None:
        positions, key = [], []
        for i, arg in enumerate(atom.args):
            if isinstance(arg, Const):
                positions.append(i)
                key.append(arg.value)
            elif arg.name in binding:
                positions.append(i)
                key.append(binding[arg.name])
        candidates = store.nt.lookup(atom.pred, tuple(positions),
                                     tuple(key))
    else:
        candidates = list(store.tuples(atom.pred))
    for args in candidates:
        extended = _extend(atom, args, binding)
        if extended is not None:
            yield from _data_bindings(rest, store, extended)


def _extend(atom: Atom, args: ArgTuple,
            binding: dict) -> Union[dict, None]:
    new = None
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


def _bound_args(atom: Atom, binding: dict) -> ArgTuple:
    return tuple(
        binding[a.name] if isinstance(a, Var) else a.value
        for a in atom.args
    )


def interval_fixpoint(rules: Sequence[Rule], database: TemporalDatabase,
                      horizon: int, stats=None,
                      metrics=None) -> TemporalStore:
    """The window least fixpoint, computed with interval algebra.

    Equals ``fixpoint(rules, database, horizon)`` exactly; use when the
    model's tuples hold over long runs of timepoints.
    """
    validate_rules(rules)
    proper = [r for r in rules if not r.is_fact]
    _check_fragment(proper)
    if stats is not None:
        stats.engine = "interval"
        stats.horizon = (horizon if stats.horizon is None
                         else max(stats.horizon, horizon))
        stats.emit("eval_start", engine="interval", horizon=horizon,
                   rules=len(proper))

    store = IntervalStore()
    by_tuple: dict[tuple[str, ArgTuple], list[int]] = {}
    for fact in database.facts():
        if fact.time is None:
            store.nt.add(fact.pred, fact.args)
        elif fact.time <= horizon:
            by_tuple.setdefault((fact.pred, fact.args),
                                []).append(fact.time)
    for rule in rules:
        if rule.is_fact:
            fact = rule.head.to_fact()
            if fact.time is None:
                store.nt.add(fact.pred, fact.args)
            elif fact.time <= horizon:
                by_tuple.setdefault((fact.pred, fact.args),
                                    []).append(fact.time)
    for (pred, args), times in by_tuple.items():
        store.merge(pred, args, IntervalSet.from_points(times))

    plans = [(rule, metrics.rule(rule) if metrics is not None else None)
             for rule in proper]
    changed = True
    round_no = 0
    while changed:
        round_no += 1
        changed = False
        merges = 0
        for rule, rm in plans:
            if rm is not None:
                rule_t0 = perf_counter()
                rm.begin_round()
            # Saturate each rule before moving on: a self-recursive
            # rule (the common shape) then converges inside one outer
            # pass instead of driving O(horizon/offset) global passes.
            while True:
                grew = _fire_rule(rule, store, horizon, stats=stats,
                                  rm=rm)
                merges += grew
                if not grew:
                    break
                changed = True
            if rm is not None:
                rm.seconds += perf_counter() - rule_t0
                rm.end_round()
        if stats is not None:
            stats.record_round(merges, round=round_no, merges=merges)
    if stats is not None:
        stats.emit("eval_end")
        if metrics is not None:
            metrics.export_into(stats)
    return store.to_store()


def _fire_rule(rule: Rule, store: IntervalStore, horizon: int,
               stats=None, rm=None) -> int:
    """Fire one rule over all data bindings; returns the number of
    tuple-interval merges that grew the store (0 = fixpoint).

    ``rm`` is the rule's :class:`~repro.obs.metrics.RuleMetrics` record;
    a firing here is a binding whose head interval set is non-empty, and
    one merge that grows the store counts as one new fact (the engine's
    unit of derivation, mirroring ``record_round(merges, ...)``).
    """
    head = rule.head
    grew = 0
    for binding in _data_bindings(rule.body, store, {}):
        if stats is not None:
            stats.join_probes += 1
        if rm is not None:
            rm.probes += 1
        times: Union[IntervalSet, None] = None
        dead = False
        for atom in rule.body:
            if atom.time is None:
                continue
            args = _bound_args(atom, binding)
            tuple_times = store.times(atom.pred, args)
            if atom.time.var is None:
                if atom.time.offset not in tuple_times:
                    dead = True
                    break
                continue
            shifted = tuple_times.shift(-atom.time.offset)
            times = shifted if times is None else \
                times.intersect(shifted)
            if not times:
                dead = True
                break
        if dead:
            continue
        head_args = _bound_args(head, binding)
        if head.time is None:
            # Non-temporal head: derivable when the body is satisfiable
            # at some timepoint (or the body was purely non-temporal).
            if times is None or times.clip(0, horizon):
                if rm is not None:
                    rm.firings += 1
                if store.nt.add(head.pred, head_args):
                    grew += 1
                    if rm is not None:
                        rm.new_facts += 1
                elif rm is not None:
                    rm.duplicates += 1
            continue
        assert times is not None, "range-restricted head needs T bound"
        head_times = times.shift(head.time.offset).clip(0, horizon)
        # The body variable T itself ranges over >= 0 only.
        head_times = head_times.clip(head.time.offset, horizon)
        if rm is not None and head_times:
            rm.firings += 1
        if store.merge(head.pred, head_args, head_times):
            grew += 1
            if rm is not None:
                rm.new_facts += 1
        elif rm is not None and head_times:
            rm.duplicates += 1
    return grew

