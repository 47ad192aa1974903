"""The shared evaluation-statistics accumulator.

One :class:`EvalStats` instance travels through an evaluation run and is
populated by whichever engines execute: fixpoint rounds, per-round delta
sizes and derived-fact counts, join probes, index hits/misses, the
horizon actually used, the detected period ``(b, p)``, and per-phase
wall time.  Instances merge (for multi-stage runs such as incremental
maintenance) and serialize to plain JSON dictionaries (for benchmark
reports and trace files).

It is also the one recorder of a run: with a :class:`Tracer` attached,
each round, phase and period it accounts is written to the trace as it
happens, so engines report every event exactly once.

Counting inference steps is the lens of the paper's polynomial-time
claims (Theorem 4.1 bounds the work of algorithm BT); these counters
make the bound observable on real runs.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Union

from .trace import Tracer


@dataclass
class EvalStats:
    """Counters describing one evaluation run.

    ``facts_per_round[i]`` is the number of *new* facts derived in round
    ``i`` and ``delta_sizes[i]`` the size of the delta entering it (for
    the naive engine, which has no deltas, ``delta_sizes`` stays empty
    and ``facts_per_round`` holds the store growth per round).
    ``join_probes`` counts candidate bindings enumerated by the join
    machinery; ``index_hits``/``index_misses`` count positional-index
    probes against already-built vs freshly-built indexes.

    ``tracer`` receives the run's trace events (``eval_start``,
    ``round``, ``fact``, ``phase``, ``period``, ``eval_end`` and the
    engine-specific ones); it is not serialized, merged or compared.
    """

    engine: str = ""
    rounds: int = 0
    facts_per_round: list[int] = field(default_factory=list)
    delta_sizes: list[int] = field(default_factory=list)
    join_probes: int = 0
    index_hits: int = 0
    index_misses: int = 0
    facts_derived: int = 0
    horizon: Union[int, None] = None
    period: Union[tuple[int, int], None] = None
    phase_seconds: dict[str, float] = field(default_factory=dict)
    extra: dict = field(default_factory=dict)
    tracer: Union[Tracer, None] = field(default=None, repr=False,
                                        compare=False)

    # -- recording -------------------------------------------------------

    def emit(self, event: str, **payload) -> None:
        """Write one trace event of this run; a no-op without a tracer."""
        if self.tracer is not None:
            self.tracer.emit(event, **payload)

    def record_round(self, derived: int,
                     delta: Union[int, None] = None, *,
                     round: Union[int, None] = None,
                     probes: Union[int, None] = None,
                     store: Union[int, None] = None,
                     subgoals: Union[int, None] = None,
                     merges: Union[int, None] = None) -> None:
        """Account one fixpoint round: ``derived`` new facts, optionally
        the size of the delta that drove it.

        The keywords complete the round's trace event, each written
        when given: its number, the join ``probes``, the ``store``
        size, the top-down engine's ``subgoals`` tables, and the
        interval engine's ``merges``, written in place of ``derived``.
        """
        self.rounds += 1
        self.facts_per_round.append(derived)
        if delta is not None:
            self.delta_sizes.append(delta)
        self.facts_derived += derived
        if self.tracer is not None:
            payload = {"round": round, "delta": delta, "probes": probes,
                       "store": store, "subgoals": subgoals}
            if merges is None:
                payload["derived"] = derived
            else:
                payload["merges"] = merges
            self.tracer.emit("round", **{key: value for key, value
                                         in payload.items()
                                         if value is not None})

    def add_phase(self, name: str, seconds: float) -> None:
        """Accumulate wall time into the named phase."""
        self.phase_seconds[name] = self.phase_seconds.get(name, 0.0) + seconds
        self.emit("phase", name=name, seconds=round(seconds, 6))

    # -- combination -----------------------------------------------------

    def merge(self, other: "EvalStats") -> "EvalStats":
        """Fold ``other`` into this accumulator, in place.

        Counters add, round lists concatenate, the horizon takes the
        max, and the period/engine of ``other`` win when set (the later
        stage knows best).  Returns ``self`` for chaining.
        """
        if other.engine:
            self.engine = other.engine
        self.rounds += other.rounds
        self.facts_per_round.extend(other.facts_per_round)
        self.delta_sizes.extend(other.delta_sizes)
        self.join_probes += other.join_probes
        self.index_hits += other.index_hits
        self.index_misses += other.index_misses
        self.facts_derived += other.facts_derived
        if other.horizon is not None:
            self.horizon = (other.horizon if self.horizon is None
                            else max(self.horizon, other.horizon))
        if other.period is not None:
            self.period = other.period
        for name, seconds in other.phase_seconds.items():
            self.phase_seconds[name] = (self.phase_seconds.get(name, 0.0)
                                        + seconds)
        self.extra.update(other.extra)
        return self

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        """A plain-JSON dictionary (tuples become lists)."""
        return {
            "engine": self.engine,
            "rounds": self.rounds,
            "facts_per_round": list(self.facts_per_round),
            "delta_sizes": list(self.delta_sizes),
            "join_probes": self.join_probes,
            "index_hits": self.index_hits,
            "index_misses": self.index_misses,
            "facts_derived": self.facts_derived,
            "horizon": self.horizon,
            "period": list(self.period) if self.period is not None else None,
            "phase_seconds": dict(self.phase_seconds),
            "extra": dict(self.extra),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "EvalStats":
        period = data.get("period")
        return cls(
            engine=data.get("engine", ""),
            rounds=data.get("rounds", 0),
            facts_per_round=list(data.get("facts_per_round", ())),
            delta_sizes=list(data.get("delta_sizes", ())),
            join_probes=data.get("join_probes", 0),
            index_hits=data.get("index_hits", 0),
            index_misses=data.get("index_misses", 0),
            facts_derived=data.get("facts_derived", 0),
            horizon=data.get("horizon"),
            period=tuple(period) if period is not None else None,
            phase_seconds=dict(data.get("phase_seconds", {})),
            extra=dict(data.get("extra", {})),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "EvalStats":
        return cls.from_dict(json.loads(text))

    # -- presentation ----------------------------------------------------

    @staticmethod
    def _render_series(values: list[int], limit: int = 16) -> str:
        shown = ", ".join(map(str, values[:limit]))
        if len(values) > limit:
            shown += f", … (+{len(values) - limit} more)"
        return shown

    def summary(self) -> str:
        """The human-readable block behind the CLI's ``--stats`` flag."""
        lines = [f"engine:            {self.engine or '(unknown)'}"]
        lines.append(f"rounds:            {self.rounds}")
        if self.facts_per_round:
            lines.append("facts per round:   "
                         + self._render_series(self.facts_per_round))
        if self.delta_sizes:
            lines.append("delta sizes:       "
                         + self._render_series(self.delta_sizes))
        lines.append(f"facts derived:     {self.facts_derived}")
        lines.append(f"join probes:       {self.join_probes}")
        lines.append(f"index hits/misses: {self.index_hits}/"
                     f"{self.index_misses}")
        if self.horizon is not None:
            lines.append(f"horizon:           {self.horizon}")
        if self.period is not None:
            b, p = self.period
            lines.append(f"period:            (b={b}, p={p})")
        for name, seconds in self.phase_seconds.items():
            lines.append(f"phase {name}: {seconds * 1e3:.2f} ms")
        for key, value in self.extra.items():
            lines.append(f"{key}: {value}")
        return "\n".join(lines)


@contextmanager
def phase_timer(stats: Union[EvalStats, None],
                name: str) -> Iterator[None]:
    """Time a phase into ``stats`` (and its trace); one clock read when
    ``stats`` is None, so call sites need no guards of their own."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        if stats is not None:
            stats.add_phase(name, time.perf_counter() - t0)
