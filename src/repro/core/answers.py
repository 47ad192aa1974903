"""Finite representations of (possibly infinite) query answer sets.

An open temporal query may have infinitely many answers — the paper's
travel example asks for *all* days a plane leaves to Hunter.  Following
Section 3.3, an answer is represented finitely as

* a finite set of *canonical substitutions*, whose temporal values are
  representative terms, plus
* the rewrite system ``W`` of the specification, which maps every ground
  temporal term to its representative.

Each canonical substitution with a temporal value ``r ≥ b`` stands for
the infinite family ``r, r+p, r+2p, ...`` (the preimages of ``r`` under
``W``); :meth:`AnswerSet.expand` enumerates the family up to a bound and
:meth:`AnswerSet.contains` decides membership of an arbitrary concrete
substitution, both in constant time per candidate.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product, takewhile
from typing import Iterator, Mapping, Union

from ..rewrite.system import RewriteSystem

Value = Union[str, int]
Substitution = dict[str, Value]

#: Variable sorts in query answers.
TIME = "time"
DATA = "data"


@dataclass(frozen=True)
class AnswerSet:
    """All answers to an open query, represented finitely.

    ``variables`` lists the query's free variables with their sorts, in
    a fixed order; ``substitutions`` holds the canonical answers as
    tuples of values aligned with ``variables``.
    """

    variables: tuple[tuple[str, str], ...]
    substitutions: frozenset[tuple[Value, ...]]
    rewrites: RewriteSystem
    b: int
    p: int

    def __len__(self) -> int:
        return len(self.substitutions)

    def __bool__(self) -> bool:
        return bool(self.substitutions)

    def __iter__(self) -> Iterator[Substitution]:
        names = [name for name, _ in self.variables]
        for values in sorted(self.substitutions, key=str):
            yield dict(zip(names, values))

    def _canonicalize(self, assignment: Mapping[str, Value]
                      ) -> Union[tuple[Value, ...], None]:
        values: list[Value] = []
        for name, sort in self.variables:
            if name not in assignment:
                return None
            value = assignment[name]
            if sort == TIME:
                if not isinstance(value, int) or value < 0:
                    return None
                value = self.rewrites.normalize(value)
            values.append(value)
        return tuple(values)

    def contains(self, assignment: Mapping[str, Value]) -> bool:
        """Is the concrete assignment an answer to the original query?

        Temporal values are canonicalised through ``W`` first, so this
        decides membership in the *infinite* answer set.
        """
        canonical = self._canonicalize(assignment)
        return canonical is not None and canonical in self.substitutions

    @property
    def is_infinite(self) -> bool:
        """True when the represented answer set is infinite.

        A canonical temporal value ``r ≥ b`` has infinitely many
        preimages under the single rewrite rule ``(b+p) → b``.
        """
        time_positions = [i for i, (_, sort) in enumerate(self.variables)
                          if sort == TIME]
        return any(
            values[pos] >= self.b  # type: ignore[operator]
            for values in self.substitutions
            for pos in time_positions
        )

    def expansion_size(self, time_bound: int) -> int:
        """How many rows :meth:`expand` yields for ``time_bound``,
        counted from ``b``, ``p`` and the canonical values alone.

        Up to the bound, a value below ``b`` is its own only preimage
        and a value ``r ≥ b`` has ``(time_bound − r) // p + 1``; a
        substitution expands to the product over its time positions.
        """
        times = [i for i, (_, sort) in enumerate(self.variables)
                 if sort == TIME]
        total = 0
        for values in self.substitutions:
            rows = 1
            for i in times:
                value = values[i]
                if value > time_bound:  # type: ignore[operator]
                    rows = 0
                elif value >= self.b:  # type: ignore[operator]
                    rows *= (time_bound - value) // self.p + 1
            total += rows
        return total

    def expand(self, time_bound: int) -> Iterator[Substitution]:
        """Enumerate concrete answers with temporal values ≤ time_bound.

        Each canonical substitution expands through the preimages of its
        temporal values; data values pass through unchanged.
        """
        names = [name for name, _ in self.variables]
        sorts = [sort for _, sort in self.variables]
        for values in sorted(self.substitutions, key=str):
            per_position: list[list[Value]] = []
            for sort, value in zip(sorts, values):
                if sort == TIME:
                    assert isinstance(value, int)
                    expansions = list(takewhile(
                        lambda t: t <= time_bound,
                        self.rewrites.preimages(value),
                    )) if value <= time_bound else []
                    per_position.append(expansions)
                else:
                    per_position.append([value])
            for combo in product(*per_position):
                yield dict(zip(names, combo))

    def as_upset(self, variable: Union[str, None] = None):
        """The answer set as an ultimately periodic set of timepoints.

        Only meaningful for queries with exactly one free variable of
        the temporal sort (``variable`` may name it explicitly when
        data variables are also present — the returned set is then the
        projection onto that variable).  Returns a
        :class:`repro.temporal.UPSet`: the [7]-style infinite object
        denoting every concrete temporal answer.
        """
        from ..temporal.upsets import UPSet

        time_names = [name for name, sort in self.variables
                      if sort == TIME]
        if variable is None:
            if len(time_names) != 1:
                raise ValueError(
                    f"query has temporal variables {time_names}; name "
                    "one explicitly"
                )
            variable = time_names[0]
        if variable not in time_names:
            raise ValueError(f"{variable} is not a temporal variable")
        position = [name for name, _ in self.variables].index(variable)
        canonical = {values[position] for values in self.substitutions}
        prefix = [t for t in canonical if t < self.b]
        residues = [(t - self.b) % self.p
                    for t in canonical if t >= self.b]  # type: ignore
        out = UPSet.finite(prefix)
        if residues:
            out = out.union(UPSet.periodic(self.b, self.p, residues))
        return out

    def __repr__(self) -> str:
        names = ", ".join(f"{n}:{s}" for n, s in self.variables)
        return (f"AnswerSet([{names}], {len(self.substitutions)} canonical "
                f"answers, W={self.rewrites}, "
                f"infinite={self.is_infinite})")
