"""Algorithm BT: bottom-up query processing for temporal rules.

Figure 1 of the paper::

    L' := D
    repeat
        L  := L'(0...m)
        L' := T_{Z∧D}(L)
    until L(0...m) = L'(0...m) and L_nt = L'_nt
    answer := L |= Q

BT terminates in time polynomial in the database size whenever the least
model's period is polynomially bounded (Theorem 4.1).  The window bound is
``m = max(c, h) + range(Z∧D)`` where ``c`` is the maximum temporal depth
in the database, ``h`` the depth of the query, and ``range`` the number of
distinct states of the least model.

Two implementations are provided:

* :func:`bt_verbatim` — Figure 1 word-for-word (whole-window naive
  re-derivation each round); the reference used in tests and in the E7
  ablation benchmark.
* :func:`bt_evaluate` — the production path: semi-naive evaluation of the
  same truncated fixpoint, plus period detection.  The paper assumes
  ``range(Z∧D)`` is known; when no window is supplied we find one by
  iterative deepening — double the window until the minimal period
  detected inside it either carries a forwardness certificate
  (:func:`~repro.temporal.periodicity.forward_lookback`) or re-verifies
  unchanged at the doubled horizon.

The result object answers ground atomic yes/no queries at *any* temporal
depth by folding the timepoint through the detected period, which is
exactly how the relational specification of Section 3.3 answers them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence, Union

from ..engines import window_fixpoint
from ..lang.atoms import Atom, Fact
from ..lang.errors import DeadlineExceeded, EvaluationError
from ..lang.rules import Rule, validate_rules
from ..obs.stats import EvalStats, phase_timer
from .database import TemporalDatabase
from .operator import step
from .stratified import is_definite, stratified_fixpoint
from .periodicity import (Period, find_minimal_period,
                          find_period_by_recurrence, forward_lookback,
                          holds_with_period, range_of)
from .store import TemporalStore


def evaluate_window(rules: Sequence[Rule], database: TemporalStore,
                    horizon: int, stats=None, metrics=None,
                    engine: str = "seminaive",
                    provenance=None) -> TemporalStore:
    """The window model: truncated least fixpoint, or — for rules with
    negative literals (the stratified extension) — the truncated perfect
    model computed stratum by stratum.  ``engine`` names the window
    engine (see :mod:`repro.engines`): ``seminaive`` (the generic loop)
    or ``compiled`` (interned ints + indexed join plans).
    ``provenance`` records support edges for every derived fact."""
    fixpoint_fn = window_fixpoint(engine)
    if is_definite(rules):
        return fixpoint_fn(rules, database, horizon, stats=stats,
                           metrics=metrics, provenance=provenance)
    return stratified_fixpoint(rules, database, horizon, stats=stats,
                               metrics=metrics, fixpoint_fn=fixpoint_fn,
                               provenance=provenance)


@dataclass
class BTResult:
    """Outcome of algorithm BT: the window fixpoint plus period data."""

    store: TemporalStore
    horizon: int
    c: int
    g: int
    period: Union[Period, None]
    rounds: int = 0
    #: Populated when the caller passed an EvalStats accumulator.
    stats: Union["EvalStats", None] = None

    def holds(self, fact: Union[Fact, Atom]) -> bool:
        """Ground atomic yes/no query ``M(Z∧D) ⊨ fact``.

        Timepoints within the window are answered directly; beyond the
        window the timepoint is folded through the period.  Raises
        :class:`EvaluationError` for a beyond-window query when no period
        is available.
        """
        if isinstance(fact, Atom):
            fact = fact.to_fact()
        if fact.time is None or fact.time <= self.horizon:
            return fact in self.store
        if self.period is None:
            raise EvaluationError(
                f"query at time {fact.time} exceeds horizon {self.horizon} "
                "and no period was detected"
            )
        folded = self.period.fold(fact.time)
        return self.store.contains(fact.pred, folded, fact.args)

    def states(self, t0: int, t1: int):
        return self.store.states(t0, t1)

    @property
    def range(self) -> int:
        """Number of distinct states within the computed window."""
        return range_of(self.store.states(0, self.horizon))


def bt_verbatim(rules: Sequence[Rule], database: TemporalDatabase,
                window: int, stats: Union[EvalStats, None] = None,
                metrics=None) -> BTResult:
    """Algorithm BT exactly as printed in Figure 1 of the paper.

    ``window`` is the paper's ``m``.  Returns the converged ``L`` (no
    period detection; use :func:`bt_evaluate` for that).
    """
    validate_rules(rules)
    if not is_definite(rules):
        raise EvaluationError(
            "bt_verbatim implements Figure 1 for the paper's definite "
            "rules; stratified programs go through bt_evaluate"
        )
    proper_rules = [r for r in rules if not r.is_fact]
    current = database.copy()  # L' := D
    rounds = 0
    size = len(current.truncate(window))
    if stats is not None:
        stats.engine = "bt_verbatim"
        stats.horizon = window
        stats.extra["initial_facts"] = size
        stats.emit("eval_start", engine="bt_verbatim", horizon=window,
                   rules=len(proper_rules), initial_facts=size)
    while True:
        rounds += 1
        truncated = current.truncate(window)           # L := L'(0...m)
        nxt = step(proper_rules, truncated, database,  # L' := T(L)
                   metrics=metrics, window=window)
        same_segment = (truncated.segment(0, window)
                        == nxt.segment(0, window))
        same_nt = truncated.nt == nxt.nt
        if stats is not None:
            new_size = len(nxt.truncate(window))
            derived = max(new_size - size, 0)
            size = max(new_size, size)
            stats.record_round(derived, round=rounds, store=new_size)
        if same_segment and same_nt:
            if stats is not None:
                stats.emit("eval_end", facts=len(truncated))
                if metrics is not None:
                    metrics.export_into(stats)
            return BTResult(store=truncated, horizon=window,
                            c=database.c, g=1, period=None,
                            rounds=rounds, stats=stats)
        current = nxt


def _initial_window(c: int, g: int, query_depth: int) -> int:
    return max(c, query_depth) + max(4 * (g + 1), 16)


def _bt_result(store: TemporalStore, horizon: int, c: int, g: int,
               period: Union[Period, None],
               stats: Union[EvalStats, None]) -> BTResult:
    """Finalize a BT run: fold the outcome into the observability layer."""
    if stats is not None:
        stats.horizon = horizon
        if stats.engine in ("", "seminaive"):
            stats.engine = "bt"
        if period is not None:
            stats.period = (period.b, period.p)
            stats.emit("period", b=period.b, p=period.p,
                       certified=period.certified, horizon=horizon)
    return BTResult(store=store, horizon=horizon, c=c, g=g,
                    period=period, stats=stats)


def bt_evaluate(rules: Sequence[Rule], database: TemporalDatabase,
                window: Union[int, None] = None,
                query_depth: int = 0,
                range_bound: Union[int, None] = None,
                max_window: int = 1 << 20,
                evidence: int = 2,
                stats: Union[EvalStats, None] = None,
                metrics=None,
                engine: str = "seminaive",
                provenance=None,
                deadline: Union[float, None] = None) -> BTResult:
    """Semi-naive BT with period detection.

    ``engine`` selects the window engine each (re-)evaluation runs on
    (``seminaive`` or ``compiled``; see :mod:`repro.engines`) — the BT
    driver itself (windowing, deepening, period detection) is shared.

    Window selection, in order of precedence:

    * explicit ``window`` — used as-is (period detection may fail if it is
      too small; ``BTResult.period`` is then None);
    * ``range_bound`` — paper mode: ``m = max(c, h) + range_bound``,
      mirroring ``m = max(c, h) + range(Z∧D)`` from Theorem 4.1's proof;
    * neither — iterative deepening until a detected period is certified
      (forward ruleset) or re-verified at a doubled horizon.

    Raises :class:`EvaluationError` if deepening passes ``max_window``
    without a stable period (only possible for very long periods or
    non-forward rulesets), and :class:`DeadlineExceeded` once the clock
    reaches ``deadline`` (a :func:`time.monotonic` instant), checked
    before every deepening pass.
    """
    validate_rules(rules)
    c = database.c
    lookback = forward_lookback([r for r in rules if not r.is_fact])
    g = max((r.temporal_depth for r in rules), default=1)
    g = max(g, 1)

    if window is not None or range_bound is not None:
        m = window if window is not None else max(c, query_depth) + range_bound
        with phase_timer(stats, "evaluate"):
            store = evaluate_window(rules, database, m, stats=stats,
                                    metrics=metrics, engine=engine,
                                    provenance=provenance)
        with phase_timer(stats, "period_detection"):
            states = store.states(0, m)
            found = find_minimal_period(states, floor=0, g=g,
                                        evidence=evidence)
        period = None
        if found is not None:
            b, p = found
            certified = (lookback is not None
                         and max(b, c + 1) + p + g - 1 <= m)
            period = Period(b, p, certified=certified, verified_horizon=m)
        elif lookback == 1:
            # Paper-style short windows (m = max(c, h) + range): for
            # normal forward programs a single state recurrence beyond
            # the database horizon already proves the period (the [6]
            # procedure's argument).
            recurred = find_period_by_recurrence(states, floor=c + 1)
            if recurred is not None:
                b, p = recurred
                period = Period(b, p, certified=True,
                                verified_horizon=m)
        return _bt_result(store, m, c, g, period, stats)

    m = _initial_window(c, g, query_depth)
    # (candidate (b, p), the trusted state sequence it was found in).
    previous: Union[tuple[tuple[int, int], list], None] = None
    while m <= max_window:
        if deadline is not None and time.monotonic() >= deadline:
            raise DeadlineExceeded(
                f"deadline passed before the deepening pass at window {m}")
        if provenance is not None:
            # Each deepening pass re-derives the whole window; stale
            # edges from the narrower run would reference facts the
            # wider model may support differently.
            provenance.reset()
        with phase_timer(stats, "evaluate"):
            store = evaluate_window(rules, database, m, stats=stats,
                                    metrics=metrics, engine=engine,
                                    provenance=provenance)
        # For non-forward rulesets the right edge of the window is
        # under-derived (facts there lack support from beyond the
        # window), so periods are detected on a trusted sub-window only.
        trusted = m if lookback is not None else max((3 * m) // 4, 1)
        with phase_timer(stats, "period_detection"):
            states = store.states(0, trusted)
            found = find_minimal_period(states, floor=0, g=g,
                                        evidence=evidence)
        if found is not None:
            b, p = found
            if lookback is not None and max(b, c + 1) + p + g - 1 <= m:
                # Forward ruleset: the window computation is exact (facts
                # never depend on later facts), so observed equalities are
                # true equalities, and a repeated g-block beyond the
                # database horizon certifies the period for the infinite
                # least model.
                period = Period(b, p, certified=True, verified_horizon=m)
                return _bt_result(store, m, c, g, period, stats)
            if (previous is not None and previous[0] == found
                    and states[:len(previous[1])] == previous[1]):
                # Same minimal period at two consecutive horizons (the
                # second twice as large) and an unchanged trusted state
                # prefix: accept as verified (not certified — backward
                # rules can in principle be influenced from beyond any
                # finite window).  The store is truncated to the trusted
                # region so direct lookups never see the polluted edge.
                period = Period(b, p, certified=False, verified_horizon=m)
                return _bt_result(store.truncate(trusted), trusted,
                                  c, g, period, stats)
            previous = (found, states)
        else:
            previous = None
        m *= 2
    raise EvaluationError(
        f"no stable period found within window {max_window}; the period "
        "of this TDD may be too large (Theorem 3.1 only bounds it "
        "exponentially in the database size)"
    )


def verify_period(rules: Sequence[Rule], database: TemporalDatabase,
                  b: int, p: int, horizon: int) -> bool:
    """Recompute up to ``horizon`` and check that ``(b, p)`` still holds.

    Used by tests and by callers who obtained a period from an external
    bound (e.g. Theorem 5.1's ``(poly(n)+1, 1)`` or a Theorem 6.3
    1-period) and want to confront it with an actual model prefix.
    """
    store = evaluate_window(rules, database, horizon)
    return holds_with_period(store.states(0, horizon), b, p)
