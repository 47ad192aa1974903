"""The engine registry: every selectable evaluation engine, by name.

Two tiers of engine names exist:

* *Window engines* compute the truncated least fixpoint one window at a
  time and are interchangeable inside algorithm BT (and inside each
  stratum of the stratified extension): ``seminaive`` — the generic
  delta-driven loop of :func:`repro.temporal.operator.fixpoint` — and
  ``compiled`` — the interning + indexed-join-plan engine of
  :func:`repro.datalog.compiled.compiled_fixpoint`.  ``bt`` is accepted
  as an alias of ``seminaive`` wherever a window engine is named, since
  that is what the BT driver runs by default.

* *Profile engines* (:data:`PROFILE_ENGINES`) additionally include the
  whole-model and goal-directed engines that are not window-fixpoint
  drop-ins (``verbatim``, ``interval``, ``magic``, ``topdown``); they
  are what ``repro profile --engine`` validates against.

Lookups raise :class:`~repro.lang.errors.EvaluationError` for unknown
names, listing the valid ones — the CLI and the query service surface
that message verbatim.
"""

from __future__ import annotations

from typing import Callable

from .lang.errors import EvaluationError

#: Canonical window-fixpoint engine names.
WINDOW_ENGINES = ("seminaive", "compiled")

#: Accepted aliases (alias -> canonical name).
_WINDOW_ALIASES = {"bt": "seminaive"}

#: Engine names the query surfaces (ask/answers/spec/serve) accept:
#: the BT driver with either window engine underneath.
QUERY_ENGINES = ("bt", "compiled")

#: Engine names accepted by ``repro profile`` /
#: :func:`repro.obs.profile.profile_tdd`.
PROFILE_ENGINES = ("bt", "compiled", "verbatim", "interval", "magic",
                   "topdown")


def canonical_window_engine(name: str) -> str:
    """Resolve ``name`` (or an alias) to a canonical window engine.

    Raises :class:`EvaluationError` for unknown names, listing the
    valid ones.
    """
    resolved = _WINDOW_ALIASES.get(name, name)
    if resolved not in WINDOW_ENGINES:
        valid = sorted(set(WINDOW_ENGINES) | set(_WINDOW_ALIASES))
        raise EvaluationError(
            f"unknown engine {name!r}; choose from {', '.join(valid)}"
        )
    return resolved


def window_fixpoint(name: str = "seminaive") -> Callable:
    """The window-fixpoint function registered under ``name``.

    Every returned callable has the
    :func:`repro.temporal.operator.fixpoint` signature:
    ``(rules, database, horizon, max_facts=None, stats=None,
    metrics=None, provenance=None) -> TemporalStore``.
    """
    resolved = canonical_window_engine(name)
    if resolved == "compiled":
        from .datalog.compiled import compiled_fixpoint
        return compiled_fixpoint
    from .temporal.operator import fixpoint
    return fixpoint


__all__ = ["WINDOW_ENGINES", "QUERY_ENGINES", "PROFILE_ENGINES",
           "canonical_window_engine", "window_fixpoint"]
