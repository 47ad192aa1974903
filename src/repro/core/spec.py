"""Relational specifications: finite representations of infinite models.

Section 3.3 of the paper: a relational specification of the least model
``L = M(Z∧D)`` is a triple ``(T, B, W)`` where

* ``T`` is a finite set of ground temporal terms (the *representatives*),
* ``B`` is a finite temporal database (the *primary database*), and
* ``W`` is a finite set of ground rewrite rules between temporal terms,

such that ``B = ⋃_{t∈T} L(t) ∪ L_nt`` and every ground temporal term
``t`` rewrites to a representative ``t0`` with ``L[t] = L[t0]``.

For TDDs, the specification computed here has the paper's canonical
shape: with minimal period ``(b, p)`` of the least model (``b`` absolute,
i.e. already accounting for the maximum database depth ``c``),

* ``T = {0, 1, ..., b+p-1}``,
* ``W = { (b+p) → b }`` — a single rewrite rule, and
* ``B`` = all model facts at representative timepoints plus ``L_nt``.

Ground atomic queries are answered by canonicalising their temporal term
through ``W`` and probing ``B`` (the even/odd worked example of the
paper); open and quantified queries are handled in
:mod:`repro.core.queries` via Proposition 3.1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence, Union

from ..lang.atoms import Atom, Fact
from ..lang.errors import EvaluationError
from ..lang.rules import Rule
from ..rewrite.system import RewriteRule, RewriteSystem
from ..temporal.bt import BTResult, bt_evaluate
from ..temporal.database import TemporalDatabase
from ..temporal.store import TemporalStore


@dataclass(frozen=True)
class RelationalSpec:
    """A relational specification ``(T, B, W)`` of a least model."""

    representatives: tuple[int, ...]
    primary: TemporalStore
    rewrites: RewriteSystem
    b: int
    p: int
    c: int
    certified: bool

    def representative_of(self, t: int) -> int:
        """The canonical form ``t0`` of the ground temporal term ``t``."""
        return self.rewrites.normalize(t)

    def holds(self, fact: Union[Fact, Atom]) -> bool:
        """Ground atomic yes/no query against the specification.

        Rewrites the query's temporal term to canonical form, then checks
        membership in the primary database ``B`` — the evaluation scheme
        of Section 3.3.
        """
        if isinstance(fact, Atom):
            fact = fact.to_fact()
        if fact.time is None:
            return fact in self.primary
        folded = self.representative_of(fact.time)
        return self.primary.contains(fact.pred, folded, fact.args)

    def state(self, t: int):
        """The state ``L[t]`` of the infinite model, via its representative."""
        return self.primary.state(self.representative_of(t))

    @property
    def size(self) -> int:
        """Specification size: |T| + |B| + |W| (Theorems 3.3 / 4.1)."""
        return (len(self.representatives) + len(self.primary)
                + len(self.rewrites.rules))

    @property
    def period(self) -> tuple[int, int]:
        """The (absolute) period ``(b, p)`` the specification encodes."""
        return (self.b, self.p)

    def facts_between(self, t0: int, t1: int):
        """Materialise the infinite model's temporal facts on [t0, t1].

        Reads each timepoint's state through its representative, so the
        range may lie arbitrarily deep.  Yields :class:`Fact` values in
        time order.
        """
        for t in range(t0, t1 + 1):
            folded = self.representative_of(t)
            for pred, args in sorted(self.primary.state(folded),
                                     key=str):
                yield Fact(pred, t, args)

    def active_domain(self) -> set[Union[str, int]]:
        """All constants occurring in the primary database.

        Quantifiers over the data sort range over this set when queries
        are evaluated on the specification (see the Appendix's proof of
        Proposition 3.1: answer constants always come from ``B``).
        """
        domain: set[Union[str, int]] = set()
        for fact in self.primary.facts():
            domain.update(fact.args)
        return domain

    @cached_property
    def data_domain(self) -> tuple[Union[str, int], ...]:
        """The active domain of ``B`` in ``str`` order, built on first use.

        The range of data quantifiers and free data variables in
        :mod:`repro.core.queries`.  ``B`` never changes, so the pass over
        it runs at most once per specification object, and only for a
        query that enumerates the data sort: ground asks and join-path
        answers never read it.
        """
        return tuple(sorted(self.active_domain(), key=str))

    def __repr__(self) -> str:
        return (f"RelationalSpec(|T|={len(self.representatives)}, "
                f"|B|={len(self.primary)}, W={self.rewrites}, "
                f"period=({self.b},{self.p}))")


def spec_from_result(result: BTResult) -> RelationalSpec:
    """Build the canonical specification from a BT evaluation result."""
    if result.period is None:
        raise EvaluationError(
            "cannot build a relational specification: BT detected no "
            "period within its window"
        )
    b, p = result.period.b, result.period.p
    if b + p - 1 > result.horizon:
        raise EvaluationError(
            f"window {result.horizon} does not cover the first period "
            f"(b={b}, p={p})"
        )
    primary = result.store.truncate(b + p - 1)
    rewrites = RewriteSystem([RewriteRule(b + p, b)])
    return RelationalSpec(
        representatives=tuple(range(b + p)),
        primary=primary,
        rewrites=rewrites,
        b=b,
        p=p,
        c=result.c,
        certified=result.period.certified,
    )


def compute_specification(rules: Sequence[Rule],
                          database: TemporalDatabase,
                          window: Union[int, None] = None,
                          range_bound: Union[int, None] = None,
                          max_window: int = 1 << 20,
                          engine: str = "seminaive",
                          stats=None, metrics=None,
                          provenance=None, deadline=None) -> RelationalSpec:
    """Compute the relational specification ``S(Z∧D)``.

    Runs algorithm BT (semi-naive, with period detection) and packages
    the result as ``(T, B, W)``.  This is the all-answers query
    processing entry point: by Theorem 4.1 it runs in time polynomial in
    the database size exactly when the specification itself is of
    polynomial size.  ``engine`` selects the window engine BT runs on
    (see :mod:`repro.engines`); the specification is the same either
    way — only the time to build it differs.

    ``stats`` / ``metrics`` / ``provenance`` are the standard engine
    instruments (all default to ``None`` and cost nothing absent); an
    :class:`~repro.obs.stats.EvalStats` with a tracer attached also
    writes the run's trace.  The serving tier passes a fresh
    :class:`~repro.obs.metrics.MetricsRegistry` and a sampled
    :class:`~repro.obs.provenance.ProvenanceStore` here so every spec
    computation feeds the continuous per-rule profile.  ``deadline``
    bounds BT's deepening loop (see :func:`bt_evaluate`).
    """
    result = bt_evaluate(rules, database, window=window,
                         range_bound=range_bound, max_window=max_window,
                         engine=engine, stats=stats,
                         metrics=metrics, provenance=provenance,
                         deadline=deadline)
    return spec_from_result(result)
