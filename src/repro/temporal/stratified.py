"""Stratified negation for temporal rules — an extension of the paper.

The paper's TDDs are definite Horn programs; its Section 8 and the
inflationary-semantics work it cites ([10] Kolaitis/Papadimitriou)
motivate negation as the natural next step.  This module adds the
standard *stratified* (perfect-model) semantics to the temporal engine:

* rules may carry ``not`` literals (safe: all their variables bound by
  positive literals);
* the program must be stratifiable — no recursion through negation
  (:func:`repro.datalog.depgraph.stratification`);
* the perfect model is computed stratum by stratum inside the BT
  window: each stratum runs the ordinary semi-naive truncated fixpoint
  with all lower strata's facts frozen as extensional input, so the
  negation checks are stable and the per-stratum operator stays
  monotone.

Periodicity survives the extension: for *forward* stratified programs
the slice at ``t`` beyond the database horizon is still a deterministic
function of the ``g`` preceding slices (each stratum is a function of
lower strata and earlier slices), so the period-certification argument
of :mod:`repro.temporal.periodicity` carries over unchanged — and with
it, the paper's whole tractability story.  The stratified travel
example in ``examples/blackout_scheduling.py`` exercises this.
"""

from __future__ import annotations

from typing import Sequence

from ..datalog.depgraph import strata_of_rules
from ..lang.errors import EvaluationError
from ..lang.rules import Rule
from .operator import fixpoint
from .store import TemporalStore


def is_definite(rules: Sequence[Rule]) -> bool:
    """True when no rule carries negative literals (the paper's case)."""
    return all(rule.is_definite for rule in rules)


def stratified_fixpoint(rules: Sequence[Rule], database: TemporalStore,
                        horizon: int, stats=None, metrics=None,
                        fixpoint_fn=None,
                        provenance=None) -> TemporalStore:
    """The perfect model of a stratified program, within a window.

    Equivalent to :func:`repro.temporal.operator.fixpoint` on definite
    programs (the single stratum).  Raises :class:`EvaluationError` for
    non-stratifiable programs.  ``fixpoint_fn`` swaps the per-stratum
    window engine (any callable with the ``fixpoint`` signature, e.g.
    :func:`repro.datalog.compiled.compiled_fixpoint`); the default is
    the generic semi-naive loop.
    """
    proper = [r for r in rules if not r.is_fact]
    facts = [r for r in rules if r.is_fact]
    try:
        groups = strata_of_rules(proper)
    except ValueError as exc:
        raise EvaluationError(str(exc)) from exc

    store = database.truncate(horizon)
    for fact_rule in facts:
        fact = fact_rule.head.to_fact()
        if fact.time is None or fact.time <= horizon:
            if store.add_fact(fact) and provenance is not None:
                provenance.record(fact_rule, fact, ())
    if stats is not None and len(groups) > 1:
        stats.engine = "stratified"
        stats.extra["strata"] = len(groups)
    # Each stratum sees lower strata's facts as extensional input, but
    # the shared provenance store keeps their support edges, so proofs
    # cross stratum boundaries transparently.
    run = fixpoint if fixpoint_fn is None else fixpoint_fn
    for group in groups:
        store = run(group, store, horizon, stats=stats,
                    metrics=metrics, provenance=provenance)
    return store
