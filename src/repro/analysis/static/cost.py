"""The per-rule join cost model: estimated bindings per probe step.

Givan & McAllester's locality argument (PAPERS.md) is what makes the
compiled engine fast: every derivation step is an indexed lookup whose
result is *small* when the probe is selective.  This module quantifies
that selectivity statically — no database in hand — so the planner can
order body atoms cheapest-first instead of most-bound-first with a
textual tie-break.

The model is deliberately coarse but database-independent (compiled
plans are LRU-cached on the rules alone, so the estimate must not read
the database):

* a relation restricted to one timepoint holds ``FANOUT ** arity``
  rows (every free data position fans out by ``FANOUT``);
* a constant, an already-bound variable, or a repeated occurrence of a
  fresh variable divides the expected matches by ``FANOUT``;
* an atom whose temporal variable is not yet bound (and whose time is
  not ground) additionally enumerates ``TIME_FANOUT`` live slices.

``expected matches`` of a fully bound atom is therefore 1 (a membership
check), and the greedy planner's invariant is simple: *pick the atom
with the fewest expected matches next; ties break towards textual
order*.  For bodies of equal-arity atoms this coincides with the old
most-bound-first heuristic, so existing plans keep their shape; the
estimates additionally give every :class:`StepChoice` a defensible
number that ``repro profile --format json`` can show as plan rationale.

When callers *do* have a database (``repro analyze``, the serving
tier's admission control), per-predicate fact counts can be passed as
``sizes`` to replace the synthetic ``FANOUT ** arity`` base.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence, Union

from ...lang.terms import Const, Var

#: Expected distinct values per free data position of an atom.
FANOUT = 8.0

#: Expected live time slices enumerated when an atom's temporal
#: variable is not yet bound (and its time is not ground).
TIME_FANOUT = 16.0


@dataclass(frozen=True)
class StepChoice:
    """Why one body atom was picked at its place in the join order.

    ``bound_vars`` counts the selective argument positions at choice
    time: constants, already-bound data variables, repeated occurrences
    of a fresh variable, plus one for a bound-or-ground temporal term.
    ``est_matches`` is the expected number of rows matching the probe
    (1.0 means a membership check); ``est_rows`` the expected number of
    partial bindings alive *after* this step.
    """

    atom_index: int
    pred: str
    bound_vars: int
    time: str  # "none" | "ground" | "bound" | "free"
    est_matches: float
    est_rows: float


@dataclass(frozen=True)
class PlanCost:
    """A join order plus its per-step rationale and total cost.

    ``total`` sums the expected intermediate result sizes (the
    classical left-deep estimate): the number of probe operations the
    nested-loop join is expected to perform over one delta row set.
    """

    order: tuple[int, ...]
    steps: tuple[StepChoice, ...]
    total: float

    def by_atom(self) -> "dict[int, StepChoice]":
        return {step.atom_index: step for step in self.steps}


def _atom_estimate(atom, bound: "set[str]",
                   sizes: Union[Mapping[str, int], None]
                   ) -> tuple[int, str, float]:
    """(bound_vars, time kind, est_matches) for ``atom`` given ``bound``."""
    selective = 0
    seen: set[str] = set()
    free = 0
    for arg in atom.args:
        if isinstance(arg, Const):
            selective += 1
        elif isinstance(arg, Var):
            if arg.name in bound or arg.name in seen:
                selective += 1
            else:
                seen.add(arg.name)
                free += 1
    tt = atom.time
    if tt is None:
        kind = "none"
    elif tt.is_ground:
        kind = "ground"
        selective += 1
    elif tt.var in bound:
        kind = "bound"
        selective += 1
    else:
        kind = "free"
    if sizes is not None and atom.pred in sizes:
        base = max(float(sizes[atom.pred]), 1.0)
        est = max(base / (FANOUT ** selective), 1.0)
        if kind == "free":
            # Fact counts already cover all timepoints; a free time
            # only means no slice is pinned, which the base reflects.
            est = max(est, 1.0)
    else:
        est = FANOUT ** free
        if kind == "free":
            est *= TIME_FANOUT
    return selective, kind, est


def cost_order(body: Sequence, first: Union[int, None] = None,
               sizes: Union[Mapping[str, int], None] = None) -> PlanCost:
    """Greedy cheapest-first join order over ``body``.

    When ``first`` is given that atom leads (semi-naive evaluation puts
    the delta atom first).  At every step the atom with the fewest
    expected matches under the current bindings is chosen; ties break
    towards textual order.  Returns the order, the per-step rationale,
    and the summed intermediate-size estimate.
    """
    remaining = set(range(len(body)))
    order: list[int] = []
    steps: list[StepChoice] = []
    bound: set[str] = set()
    rows = 1.0
    total = 0.0

    def bind(i: int) -> None:
        nonlocal rows, total
        atom = body[i]
        selective, kind, est = _atom_estimate(atom, bound, sizes)
        rows *= est
        total += rows
        steps.append(StepChoice(atom_index=i, pred=atom.pred,
                                bound_vars=selective, time=kind,
                                est_matches=est, est_rows=rows))
        order.append(i)
        remaining.discard(i)
        for arg in atom.args:
            if isinstance(arg, Var):
                bound.add(arg.name)
        tvar = atom.temporal_variable()
        if tvar is not None:
            bound.add(tvar)

    if first is not None:
        bind(first)
    while remaining:
        def key(i: int) -> tuple[float, int]:
            _, _, est = _atom_estimate(body[i], bound, sizes)
            return (est, i)
        bind(min(remaining, key=key))
    return PlanCost(order=tuple(order), steps=tuple(steps), total=total)


def rule_cost(rule, sizes: Union[Mapping[str, int], None] = None
              ) -> PlanCost:
    """The canonical (free-lead) plan cost of one proper rule."""
    return cost_order(rule.body, sizes=sizes)


def fact_sizes(facts) -> "dict[str, int]":
    """Per-predicate fact counts, the ``sizes`` input of the model."""
    sizes: dict[str, int] = {}
    for fact in facts:
        sizes[fact.pred] = sizes.get(fact.pred, 0) + 1
    return sizes


#: Window factor used when no static period bound is available: the
#: same default horizon the serving tier's degraded path evaluates to.
DEFAULT_WINDOW = 64.0

#: Cap on the window factor, so one huge-lcm clock program does not
#: make every admission estimate astronomically large.
MAX_WINDOW_FACTOR = 4096.0


def predicted_cost(rules: Sequence, facts=(),
                   period: Union[int, None] = None) -> float:
    """The program's evaluation budget estimate, in probe units.

    Sums the canonical per-rule plan costs (scaled by the database's
    per-predicate fact counts when given) and multiplies by a window
    factor: the static period bound when one is known, else
    ``DEFAULT_WINDOW``.  Heuristic by design — the serving tier uses it
    as a *relative* admission-control knob, not a wall-time promise.
    """
    sizes = fact_sizes(facts) or None
    proper = [r for r in rules if not r.is_fact]
    per_round = sum(rule_cost(r, sizes=sizes).total for r in proper)
    window = float(period) if period else DEFAULT_WINDOW
    window = min(max(window, 1.0), MAX_WINDOW_FACTOR)
    return per_round * window


def lcm(values) -> int:
    """Least common multiple of an iterable of positive ints (1 when
    empty) — shared by the period-bound computations."""
    out = 1
    for value in values:
        out = math.lcm(out, int(value))
    return out


__all__ = ["FANOUT", "TIME_FANOUT", "DEFAULT_WINDOW", "StepChoice",
           "PlanCost", "cost_order", "rule_cost", "fact_sizes",
           "predicted_cost", "lcm"]
