"""Hot-rule reports: run an engine under a :class:`MetricsRegistry`.

The profiler behind ``repro profile``.  Theorem 4.1 bounds algorithm
BT's work *per rule* over the window ``[0..m]``, and in practice one
hot rule usually dominates a slow evaluation; this module runs the
requested engine with a fresh registry attached and renders the
per-rule attribution three ways:

* a text table sorted by self-time (rule ``file:line`` span, wall time,
  firings, new facts, duplicate ratio, join probes per fact);
* JSON carrying the same records plus the full
  :class:`~repro.obs.stats.EvalStats` block;
* folded stacks (``frame;frame value``) consumable by ``flamegraph.pl``
  and speedscope, one stack per rule with the self-time in
  microseconds.

Engines: ``bt`` (default) and ``compiled`` (the BT driver on the
compiled window engine), ``verbatim`` (Figure 1 word-for-word),
``interval`` (interval algebra) profile the whole model; ``magic`` and
``topdown`` are goal-directed and need a ground query atom.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Union

from ..engines import PROFILE_ENGINES
from .metrics import MetricsRegistry, RuleMetrics
from .stats import EvalStats


@dataclass
class ProfileReport:
    """One profiled run: the registry, the stats, and how it was made."""

    program: str
    engine: str
    registry: MetricsRegistry
    stats: EvalStats
    #: Goal verdict for the goal-directed engines; None otherwise.
    answer: Union[bool, None] = None
    #: Chosen join plans with their cost rationale (compiled engine).
    plans: "list[dict]" = None

    @property
    def records(self) -> list[RuleMetrics]:
        """Per-rule records, hottest (most self-time) first."""
        return self.registry.hot("seconds")


def _plan_records(rules) -> "list[dict]":
    """The compiled plans of ``rules``, with the cost model's rationale
    per probe step — what ``repro profile --format json`` exports."""
    from ..datalog.compiled import compile_program

    program = compile_program(rules)
    records = []
    for rule, per_rule in zip(program.rules, program.plans):
        for plan in per_rule:
            records.append({
                "rule": str(rule),
                "lead": plan.lead,
                "order": list(plan.order),
                "est_cost": plan.est_cost,
                "describe": plan.describe(),
                "steps": [
                    {"atom": step.atom_index, "pred": step.pred,
                     "mode": step.mode, "time": step.time,
                     "bound_vars": step.bound_vars,
                     "est_matches": step.est_matches,
                     "est_rows": step.est_rows}
                    for step in plan.steps
                ],
            })
    return records


def profile_tdd(tdd, program: str, engine: str = "bt",
                query=None,
                stats: Union[EvalStats, None] = None) -> ProfileReport:
    """Evaluate ``tdd`` under a fresh registry with the named engine.

    ``query`` (a ground :class:`~repro.lang.atoms.Atom`) is required by
    the goal-directed engines and ignored by the others.  ``stats`` is
    the run's accumulator (a fresh one when omitted; attach a tracer to
    it to trace the profiled run).  Raises
    :class:`~repro.lang.errors.EvaluationError` on a missing query or
    an engine/fragment mismatch.
    """
    from ..lang.errors import EvaluationError

    if engine not in PROFILE_ENGINES:
        raise EvaluationError(
            f"unknown profile engine {engine!r}; "
            f"choose from {', '.join(PROFILE_ENGINES)}"
        )
    from .provenance import ProvenanceStore

    registry = MetricsRegistry()
    if stats is None:
        stats = EvalStats()
    answer: Union[bool, None] = None
    if engine == "bt":
        # The full-model engines also record provenance, so the profile
        # carries the proof-DAG shape (supports histogram, depth,
        # in-degree) next to the per-rule time.
        tdd.evaluate(stats=stats, metrics=registry,
                     provenance=ProvenanceStore())
    elif engine == "compiled":
        # The same BT driver, with the compiled window engine (interned
        # ints + indexed join plans) doing each window's fixpoint.
        tdd.evaluate(stats=stats, metrics=registry,
                     provenance=ProvenanceStore(), engine="compiled")
    elif engine in ("verbatim", "interval"):
        # These take an explicit window; borrow the one BT settles on
        # (computed uninstrumented, so the profile is engine-pure).
        horizon = tdd.evaluate().horizon
        if engine == "verbatim":
            from ..temporal.bt import bt_verbatim
            bt_verbatim(tdd.rules, tdd.database, horizon, stats=stats,
                        metrics=registry)
        else:
            from ..temporal.interval_engine import interval_fixpoint
            interval_fixpoint(tdd.rules, tdd.database, horizon,
                              stats=stats, metrics=registry)
    else:
        if query is None:
            raise EvaluationError(
                f"engine {engine!r} is goal-directed; pass --query "
                "with a ground atom (e.g. --query 'even(4)')"
            )
        if engine == "magic":
            from ..core.magic import magic_ask
            answer = magic_ask(tdd.rules, tdd.database, query,
                               stats=stats, metrics=registry)
        else:
            from ..temporal.topdown import topdown_ask
            answer = topdown_ask(tdd.rules, tdd.database, query,
                                 stats=stats, metrics=registry)
    plans = (_plan_records(tdd.rules) if engine == "compiled"
             else None)
    return ProfileReport(program=program, engine=engine,
                         registry=registry, stats=stats, answer=answer,
                         plans=plans)


# -- renderers -----------------------------------------------------------


def _pct(ratio: float) -> str:
    return f"{100.0 * ratio:.1f}%"


def render_table(report: ProfileReport) -> str:
    """The human hot-rule table, hottest rule first."""
    stats = report.stats
    lines = [f"profile: {report.program}  engine={report.engine}"]
    if report.answer is not None:
        lines[0] += f"  answer={'yes' if report.answer else 'no'}"
    header = ("rule", "location", "time(ms)", "firings", "new",
              "dup%", "probes/fact")
    rows = [header]
    for r in report.records:
        rows.append((
            r.id,
            r.span_label(report.program),
            f"{r.seconds * 1e3:.2f}",
            str(r.firings),
            str(r.new_facts),
            _pct(r.duplicate_ratio),
            f"{r.probes_per_fact:.1f}",
        ))
    total = report.registry
    rows.append((
        "total", "",
        f"{total.total_seconds * 1e3:.2f}",
        str(sum(r.firings for r in total)),
        str(total.total_new_facts),
        _pct(total.total_duplicates
             / max(total.total_new_facts + total.total_duplicates, 1)),
        "",
    ))
    widths = [max(len(row[i]) for row in rows)
              for i in range(len(header))]
    for index, row in enumerate(rows):
        cells = [row[0].ljust(widths[0]), row[1].ljust(widths[1])]
        cells += [cell.rjust(widths[i + 2])
                  for i, cell in enumerate(row[2:])]
        lines.append("  ".join(cells).rstrip())
        if index == 0:
            lines.append("  ".join("-" * w for w in widths))
    for record in report.records:
        lines.append(f"{record.id}: {record.label}")
    summary = (f"facts derived: {stats.facts_derived}   "
               f"rounds: {stats.rounds}")
    if stats.horizon is not None:
        summary += f"   horizon: {stats.horizon}"
    if stats.period is not None:
        summary += f"   period: (b={stats.period[0]}, p={stats.period[1]})"
    lines.append(summary)
    provenance = stats.extra.get("provenance")
    if provenance:
        supports = ", ".join(
            f"{k}:{v}" for k, v in sorted(
                provenance["supports"].items(),
                key=lambda kv: str(kv[0])))
        lines.append(
            f"provenance: {provenance['derived']} derived / "
            f"{provenance['facts']} facts   "
            f"depth: {provenance['depth']}   "
            f"max in-degree: {provenance['max_in_degree']}   "
            f"supports: {{{supports or '-'}}}")
    if report.plans:
        lines.append("join plans (cost-ordered):")
        for plan in report.plans:
            lines.append(f"  [{plan['est_cost']:.1f}] "
                         f"{plan['describe']}")
    return "\n".join(lines)


def render_json(report: ProfileReport) -> str:
    """Machine output: the records plus the full stats block."""
    payload = {
        "program": report.program,
        "engine": report.engine,
        "answer": report.answer,
        "rules": report.registry.to_dict(),
        "stats": report.stats.to_dict(),
    }
    if report.plans is not None:
        payload["plans"] = report.plans
    return json.dumps(payload, indent=2, sort_keys=True)


def render_folded(report: ProfileReport) -> str:
    """Folded stacks for flamegraph.pl / speedscope.

    One line per rule: ``engine;file:line label microseconds``.  The
    collapser splits frames on ``;`` and the sample count on the *last*
    space, so spaces inside the rule label are fine; semicolons are
    replaced to keep the frame boundary unambiguous.
    """
    lines = []
    for r in report.registry:
        label = r.label.replace(";", ",")
        frame = f"{report.engine};{r.span_label(report.program)} {label}"
        lines.append(f"{frame} {int(round(r.seconds * 1e6))}")
    return "\n".join(lines)
