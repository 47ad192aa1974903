"""Per-rule cost attribution: the metrics registry behind ``repro profile``.

:class:`EvalStats` sees an evaluation globally — rounds, total deltas,
total join probes.  Theorem 4.1, however, bounds the work of algorithm
BT *rule by rule* over the window ``[0..m]``, and in practice a single
hot rule usually dominates a slow run.  A :class:`MetricsRegistry`
attributes the work to individual rules: firings, new facts, duplicate
(already-derived) derivations, join probes, wall time, and a compact
power-of-two histogram of new facts per round.

The discipline mirrors :class:`~repro.obs.trace.Tracer`: every engine
takes ``metrics=None`` and the disabled path costs nothing — no record
objects, no histogram buckets, no clock reads; the hot loops guard every
touch with ``is not None`` checks hoisted out of the inner loops (the
per-rule handle is resolved once per rule, not once per derivation).

Rule identity is the rule *object* (two textually identical rules at
different source lines stay distinct), and each record carries the
rule's :class:`~repro.lang.spans.Span` line so reports can cite
``file:line``.  Records serialize to the plain-JSON list that engines
publish under ``EvalStats.extra["rules"]``.
"""

from __future__ import annotations

from typing import Iterator, Union

#: Bucket count for :class:`Histogram`: bucket ``i`` holds values whose
#: bit length is ``i`` (0, 1, 2-3, 4-7, ...); the last bucket is open.
_HISTOGRAM_BUCKETS = 18


class Histogram:
    """A compact power-of-two histogram of non-negative integers.

    Bucket 0 counts zeros, bucket 1 counts ones, bucket ``i`` counts
    values in ``[2**(i-1), 2**i - 1]``; the final bucket is unbounded.
    Fixed memory regardless of the value range, which is what lets every
    rule afford one.
    """

    __slots__ = ("counts",)

    def __init__(self) -> None:
        self.counts = [0] * _HISTOGRAM_BUCKETS

    def record(self, value: int) -> None:
        self.counts[min(value.bit_length(), _HISTOGRAM_BUCKETS - 1)] += 1

    @property
    def total(self) -> int:
        return sum(self.counts)

    @staticmethod
    def bucket_label(index: int) -> str:
        if index == 0:
            return "0"
        if index == 1:
            return "1"
        lo = 1 << (index - 1)
        if index == _HISTOGRAM_BUCKETS - 1:
            return f"{lo}+"
        return f"{lo}-{(1 << index) - 1}"

    def to_dict(self) -> dict:
        """Sparse mapping of bucket label to count (zero buckets drop)."""
        return {self.bucket_label(i): count
                for i, count in enumerate(self.counts) if count}

    @classmethod
    def from_dict(cls, data: dict) -> "Histogram":
        histogram = cls()
        labels = {cls.bucket_label(i): i
                  for i in range(_HISTOGRAM_BUCKETS)}
        for label, count in data.items():
            histogram.counts[labels[label]] = count
        return histogram


class RuleMetrics:
    """Mutable per-rule counters; engines poke the public attributes
    directly from their firing loops.

    * ``firings`` — derivation attempts: body bindings that survived the
      negation check (head instantiations attempted);
    * ``new_facts`` — derivations that actually grew the model (exactly
      the per-rule share of :attr:`EvalStats.facts_derived`);
    * ``duplicates`` — derivations of facts already present (the
      re-derivation overhead semi-naive evaluation tries to avoid);
    * ``probes`` — join candidate bindings enumerated for this rule;
    * ``seconds`` — wall time spent firing this rule (``perf_counter``);
    * ``per_round`` — histogram of new facts per fixpoint round.
    """

    __slots__ = ("id", "label", "line", "firings", "new_facts",
                 "duplicates", "probes", "seconds", "per_round",
                 "_round_base")

    def __init__(self, rule_id: str, label: str,
                 line: Union[int, None]) -> None:
        self.id = rule_id
        self.label = label
        self.line = line
        self.firings = 0
        self.new_facts = 0
        self.duplicates = 0
        self.probes = 0
        self.seconds = 0.0
        self.per_round = Histogram()
        self._round_base = 0

    # -- round bookkeeping ----------------------------------------------

    def begin_round(self) -> None:
        self._round_base = self.new_facts

    def end_round(self) -> None:
        self.per_round.record(self.new_facts - self._round_base)

    # -- derived quantities ---------------------------------------------

    @property
    def duplicate_ratio(self) -> float:
        """Duplicate derivations as a fraction of all derivations."""
        derivations = self.new_facts + self.duplicates
        return self.duplicates / derivations if derivations else 0.0

    @property
    def probes_per_fact(self) -> float:
        """Join probes paid per new fact (the rule's selectivity cost)."""
        return self.probes / self.new_facts if self.new_facts else 0.0

    def span_label(self, path: Union[str, None] = None) -> str:
        """``file:line`` (or just ``line``) for reports; ``-`` unknown."""
        if self.line is None:
            return "-"
        return f"{path}:{self.line}" if path else f"line {self.line}"

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "label": self.label,
            "line": self.line,
            "firings": self.firings,
            "new_facts": self.new_facts,
            "duplicates": self.duplicates,
            "probes": self.probes,
            "seconds": round(self.seconds, 9),
            "per_round": self.per_round.to_dict(),
        }


class MetricsRegistry:
    """Owns the per-rule records of one (or several merged) runs.

    Engines call :meth:`rule` once per rule outside their inner loops
    and mutate the returned :class:`RuleMetrics` directly.  The registry
    accumulates across engine invocations (a stratified run's strata, an
    incremental model's insertions), so a snapshot taken at any exit
    point is complete up to that moment.
    """

    def __init__(self) -> None:
        # id(rule) -> record: structurally equal rules at different
        # source lines must not share a record, and Rule equality
        # ignores spans — so key by object identity.  The caller holds
        # the evaluated program's rules while engines register them,
        # so no id is recycled to another rule mid-run.
        self._records: dict[int, RuleMetrics] = {}

    def rule(self, rule) -> RuleMetrics:
        """The record for ``rule``, created on first sight."""
        record = self._records.get(id(rule))
        if record is None:
            span = rule.span if rule.span is not None else rule.head.span
            record = RuleMetrics(
                rule_id=f"r{len(self._records) + 1}",
                label=str(rule),
                line=span.line if span is not None else None,
            )
            self._records[id(rule)] = record
        return record

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[RuleMetrics]:
        """Records in registration order."""
        return iter(self._records.values())

    def records(self) -> list[RuleMetrics]:
        return list(self._records.values())

    def hot(self, key: str = "seconds") -> list[RuleMetrics]:
        """Records sorted by the named attribute, hottest first."""
        return sorted(self._records.values(),
                      key=lambda r: getattr(r, key), reverse=True)

    # -- aggregates ------------------------------------------------------

    @property
    def total_new_facts(self) -> int:
        return sum(r.new_facts for r in self._records.values())

    @property
    def total_duplicates(self) -> int:
        return sum(r.duplicates for r in self._records.values())

    @property
    def total_seconds(self) -> float:
        return sum(r.seconds for r in self._records.values())

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> list[dict]:
        """Plain-JSON list of per-rule records, registration order."""
        return [record.to_dict() for record in self._records.values()]

    def export_into(self, stats) -> None:
        """Publish the current snapshot under ``stats.extra["rules"]``.

        Engines call this at their exit points; because the registry is
        cumulative, the last exporter wins with the full picture.
        """
        stats.extra["rules"] = self.to_dict()
