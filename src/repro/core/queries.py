"""First-order temporal queries and their evaluation.

A temporal query (Section 3.1) is a first-order formula without equality
over temporal and non-temporal atoms, with two-sorted quantifiers: one
sort ranges over ground temporal terms, the other over non-temporal
constants.  Proposition 3.1 proves every such query *invariant with
respect to relational specifications*: it can be evaluated on the finite
primary database ``B``, with

* ground temporal terms in atoms canonicalised through ``W``,
* temporal quantifiers ranging over the representative terms ``T``, and
* data quantifiers ranging over the active domain of ``B``,
* negation under the Closed World Assumption applied to ``B``.

This module provides the query AST, a textual query parser
(``"exists T: plane(T, hunter) and not winter(T)"``), spec-based
evaluation, answer-set computation for open queries, and a direct
model-prefix evaluator used to test the invariance property.

As an extension beyond the paper's equality-free language, the AST also
offers :class:`TimeEq` — the temporal-equality query of Section 8, which
the paper shows is *not* invariant.  Evaluating it on a specification
reproduces the paper's counterexample (two distinct timepoints with the
same representative compare equal); the docstring of :class:`TimeEq` and
experiment E6 document this known unsoundness.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Mapping, Sequence, Union

from ..lang.atoms import Atom, Fact
from ..lang.errors import ParseError, SortError
from ..lang.parse import Token, int_value, is_variable_name, tokenize
from ..lang.terms import Const, TimeTerm, Var
from ..temporal.bt import BTResult
from .answers import DATA, TIME, AnswerSet, Value
from .spec import RelationalSpec


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

class Query:
    """Base class of query formulas."""

    def __and__(self, other: "Query") -> "And":
        return And((self, other))

    def __or__(self, other: "Query") -> "Or":
        return Or((self, other))

    def __invert__(self) -> "Not":
        return Not(self)


@dataclass(frozen=True)
class AtomQ(Query):
    """An atomic query: a temporal or non-temporal atom."""

    atom: Atom

    def __str__(self) -> str:
        return str(self.atom)


@dataclass(frozen=True)
class Not(Query):
    """Negation, evaluated under the Closed World Assumption."""

    inner: Query

    def __str__(self) -> str:
        return f"not ({self.inner})"


@dataclass(frozen=True)
class And(Query):
    parts: tuple[Query, ...]

    def __str__(self) -> str:
        return " and ".join(f"({p})" for p in self.parts)


@dataclass(frozen=True)
class Or(Query):
    parts: tuple[Query, ...]

    def __str__(self) -> str:
        return " or ".join(f"({p})" for p in self.parts)


@dataclass(frozen=True)
class Implies(Query):
    """``antecedent -> consequent``, sugar for ``not a or c``."""

    antecedent: Query
    consequent: Query

    def __str__(self) -> str:
        return f"({self.antecedent}) implies ({self.consequent})"


@dataclass(frozen=True)
class Exists(Query):
    """Existential quantifier; ``sort`` is ``"time"`` or ``"data"``."""

    var: str
    sort: str
    inner: Query

    def __str__(self) -> str:
        return f"exists {self.var}: ({self.inner})"


@dataclass(frozen=True)
class Forall(Query):
    """Universal quantifier; ``sort`` is ``"time"`` or ``"data"``."""

    var: str
    sort: str
    inner: Query

    def __str__(self) -> str:
        return f"forall {self.var}: ({self.inner})"


@dataclass(frozen=True)
class TimeEq(Query):
    """Equality of temporal terms — the Section 8 counterexample.

    NOT part of the paper's (equality-free) query language and NOT
    invariant w.r.t. relational specifications: on a specification, two
    different timepoints with the same representative compare equal even
    though they differ in the infinite model.  Provided so the paper's
    counterexample is runnable; use with direct model evaluation for
    sound answers.
    """

    left: TimeTerm
    right: TimeTerm

    def __str__(self) -> str:
        return f"{self.left} = {self.right}"


@dataclass(frozen=True)
class DataEq(Query):
    """Equality of data terms (safe: data constants are never rewritten)."""

    left: Union[Const, Var]
    right: Union[Const, Var]

    def __str__(self) -> str:
        return f"{self.left} = {self.right}"


# ---------------------------------------------------------------------------
# Free variables and sort inference
# ---------------------------------------------------------------------------

def _merge_sort(sorts: dict[str, str], name: str, sort: str) -> None:
    known = sorts.get(name)
    if known is None:
        sorts[name] = sort
    elif known != sort:
        raise SortError(
            f"variable {name} used both as {known} and as {sort}"
        )


def free_variables(query: Query,
                   bound: frozenset[str] = frozenset()) -> dict[str, str]:
    """Free variables of a query with inferred sorts (name -> sort)."""
    sorts: dict[str, str] = {}

    def walk(q: Query, bound: frozenset[str]) -> None:
        if isinstance(q, AtomQ):
            atom = q.atom
            if atom.time is not None and atom.time.var is not None:
                if atom.time.var not in bound:
                    _merge_sort(sorts, atom.time.var, TIME)
            for arg in atom.args:
                if isinstance(arg, Var) and arg.name not in bound:
                    _merge_sort(sorts, arg.name, DATA)
        elif isinstance(q, Not):
            walk(q.inner, bound)
        elif isinstance(q, (And, Or)):
            for part in q.parts:
                walk(part, bound)
        elif isinstance(q, Implies):
            walk(q.antecedent, bound)
            walk(q.consequent, bound)
        elif isinstance(q, (Exists, Forall)):
            walk(q.inner, bound | {q.var})
        elif isinstance(q, TimeEq):
            for side in (q.left, q.right):
                if side.var is not None and side.var not in bound:
                    _merge_sort(sorts, side.var, TIME)
        elif isinstance(q, DataEq):
            for side in (q.left, q.right):
                if isinstance(side, Var) and side.name not in bound:
                    _merge_sort(sorts, side.name, DATA)
        else:
            raise TypeError(f"unknown query node {type(q).__name__}")

    walk(query, bound)
    return sorts


def quantifier_sort(query: Union[Exists, Forall]) -> str:
    """Infer a quantifier's sort from its body when marked ``"auto"``."""
    inner_sorts = free_variables(query.inner)
    return inner_sorts.get(query.var, DATA)


# ---------------------------------------------------------------------------
# Evaluation on a relational specification (Proposition 3.1)
# ---------------------------------------------------------------------------

def _ground_time(tt: TimeTerm, binding: Mapping[str, Value]) -> int:
    if tt.var is None:
        return tt.offset
    value = binding[tt.var]
    assert isinstance(value, int)
    return value + tt.offset


def _atom_fact(atom: Atom, binding: Mapping[str, Value]) -> Fact:
    time = None
    if atom.time is not None:
        time = _ground_time(atom.time, binding)
    args = tuple(
        binding[a.name] if isinstance(a, Var) else a.value
        for a in atom.args
    )
    return Fact(atom.pred, time, args)


class _SpecDomain:
    """Quantifier domains + atom oracle backed by a specification.

    The data domain is the spec's cached ``data_domain``, read only
    when the data sort is enumerated.
    """

    def __init__(self, spec: RelationalSpec):
        self.spec = spec
        self.time_domain: Sequence[int] = spec.representatives

    @property
    def data_domain(self) -> Sequence[Value]:
        return self.spec.data_domain

    def holds(self, fact: Fact) -> bool:
        return self.spec.holds(fact)

    def times_equal(self, s: int, t: int) -> bool:
        # Representative-level comparison: sound only when both sides are
        # representatives — the documented Section 8 unsoundness.
        return (self.spec.representative_of(s)
                == self.spec.representative_of(t))


class _ModelDomain:
    """Quantifier domains + atom oracle backed by a model prefix.

    Temporal quantifiers range over ``[0, time_bound]`` — an
    approximation of the infinite domain used to *test* invariance
    (Proposition 3.1 guarantees agreement when the bound covers ``b+p``).
    """

    def __init__(self, result: BTResult, time_bound: Union[int, None] = None):
        self.result = result
        bound = time_bound if time_bound is not None else result.horizon
        self.time_domain = range(bound + 1)
        domain: set[Value] = set()
        for fact in result.store.facts():
            domain.update(fact.args)
        self.data_domain = sorted(domain, key=str)

    def holds(self, fact: Fact) -> bool:
        return self.result.holds(fact)

    def times_equal(self, s: int, t: int) -> bool:
        return s == t


def _evaluate(query: Query, domain, binding: dict[str, Value]) -> bool:
    if isinstance(query, AtomQ):
        return domain.holds(_atom_fact(query.atom, binding))
    if isinstance(query, Not):
        return not _evaluate(query.inner, domain, binding)
    if isinstance(query, And):
        return all(_evaluate(p, domain, binding) for p in query.parts)
    if isinstance(query, Or):
        return any(_evaluate(p, domain, binding) for p in query.parts)
    if isinstance(query, Implies):
        return (not _evaluate(query.antecedent, domain, binding)
                or _evaluate(query.consequent, domain, binding))
    if isinstance(query, (Exists, Forall)):
        sort = query.sort
        if sort == "auto":
            sort = quantifier_sort(query)
        values = (domain.time_domain if sort == TIME
                  else domain.data_domain)
        results = (
            _evaluate(query.inner, domain, {**binding, query.var: v})
            for v in values
        )
        return any(results) if isinstance(query, Exists) else all(results)
    if isinstance(query, TimeEq):
        return domain.times_equal(_ground_time(query.left, binding),
                                  _ground_time(query.right, binding))
    if isinstance(query, DataEq):
        def value(side):
            return binding[side.name] if isinstance(side, Var) else side.value
        return value(query.left) == value(query.right)
    raise TypeError(f"unknown query node {type(query).__name__}")


def evaluate(query: Query, spec: RelationalSpec,
             binding: Union[Mapping[str, Value], None] = None) -> bool:
    """Evaluate a closed query on a relational specification.

    By Proposition 3.1 the result equals evaluation on the infinite least
    model, for every equality-free temporal query.
    """
    sorts = free_variables(query)
    given = dict(binding) if binding else {}
    missing = set(sorts) - set(given)
    if missing:
        raise SortError(
            f"query has unbound free variables {sorted(missing)}; "
            "use answers() for open queries"
        )
    return _evaluate(query, _SpecDomain(spec), given)


def evaluate_on_model(query: Query, result: BTResult,
                      binding: Union[Mapping[str, Value], None] = None,
                      time_bound: Union[int, None] = None) -> bool:
    """Evaluate a closed query directly on a computed model prefix.

    Temporal quantifiers range over ``[0, time_bound]`` (default: the
    BT window); this is the reference semantics that invariance tests
    compare spec-based evaluation against.
    """
    given = dict(binding) if binding else {}
    return _evaluate(query, _ModelDomain(result, time_bound), given)


def answers_on_model(query: Query, result: BTResult,
                     time_bound: Union[int, None] = None
                     ) -> list[dict[str, Value]]:
    """All answers to an open query by direct model-prefix evaluation.

    The reference semantics for open queries: free temporal variables
    range over ``[0, time_bound]`` (default: the BT window) and data
    variables over the model's active domain, with every candidate
    binding checked by :func:`evaluate_on_model`.  Used to test the
    invariance of spec-based :func:`answers` and as the degraded
    (windowed) fallback of the query service.  Returns concrete
    substitutions in a deterministic order.
    """
    sorts = free_variables(query)
    names = sorted(sorts)
    domain = _ModelDomain(result, time_bound)
    axes = [
        domain.time_domain if sorts[name] == TIME else domain.data_domain
        for name in names
    ]
    found: list[dict[str, Value]] = []
    for values in product(*axes):
        binding = dict(zip(names, values))
        if _evaluate(query, domain, binding):
            found.append(binding)
    found.sort(key=lambda sub: tuple(str(sub[name]) for name in names))
    return found


def max_ground_time(query: Query) -> int:
    """The largest ground timepoint mentioned anywhere in a query.

    Sizes the window of degraded (spec-less) evaluation: a windowed
    model whose horizon reaches every ground timepoint answers the
    query's atomic probes without folding.  Returns 0 when no ground
    temporal term occurs.
    """
    best = 0

    def walk(q: Query) -> None:
        nonlocal best
        if isinstance(q, AtomQ):
            tt = q.atom.time
            if tt is not None and tt.var is None:
                best = max(best, tt.offset)
        elif isinstance(q, Not):
            walk(q.inner)
        elif isinstance(q, (And, Or)):
            for part in q.parts:
                walk(part)
        elif isinstance(q, Implies):
            walk(q.antecedent)
            walk(q.consequent)
        elif isinstance(q, (Exists, Forall)):
            walk(q.inner)
        elif isinstance(q, TimeEq):
            for side in (q.left, q.right):
                if side.var is None:
                    best = max(best, side.offset)

    walk(query)
    return best


def _conjunctive_core(query: Query) -> Union[
        tuple[list[Atom], list[Atom]], None]:
    """Decompose into (positive atoms, negated atoms), or None.

    Recognised shape: an optional prefix of existential quantifiers
    over a conjunction of atoms and negated atoms (including the single-
    atom cases).  Offsets on temporal variables and negated variables
    not bound positively disqualify the query from the join fast path.
    """
    while isinstance(query, Exists):
        query = query.inner
    parts: list[Query]
    if isinstance(query, And):
        parts = list(query.parts)
    else:
        parts = [query]
    positive: list[Atom] = []
    negative: list[Atom] = []
    for part in parts:
        if isinstance(part, AtomQ):
            positive.append(part.atom)
        elif isinstance(part, Not) and isinstance(part.inner, AtomQ):
            negative.append(part.inner.atom)
        else:
            return None
    for atom in positive + negative:
        if atom.time is not None and atom.time.var is not None \
                and atom.time.offset != 0:
            return None
    positive_vars = {v.name for a in positive for v in a.data_variables()}
    positive_vars.update(
        a.time.var for a in positive
        if a.time is not None and a.time.var is not None)
    for atom in negative:
        vars_needed = {v.name for v in atom.data_variables()}
        if atom.time is not None and atom.time.var is not None:
            vars_needed.add(atom.time.var)
        if not vars_needed <= positive_vars:
            return None
    return positive, negative


def _canonical_atom(atom: Atom, spec: RelationalSpec) -> Atom:
    """Canonicalise a ground temporal argument through ``W``."""
    if atom.time is not None and atom.time.var is None:
        folded = spec.representative_of(atom.time.offset)
        if folded != atom.time.offset:
            return Atom(atom.pred, TimeTerm(None, folded), atom.args)
    return atom


def _join_answers(positive: Sequence[Atom], negative: Sequence[Atom],
                  names: Sequence[str],
                  spec: RelationalSpec) -> set[tuple[Value, ...]]:
    from ..datalog.engine import plan_order
    from ..temporal.operator import temporal_join

    atoms = [_canonical_atom(a, spec) for a in positive]
    negs = [_canonical_atom(a, spec) for a in negative]
    order = plan_order(atoms)
    stores = [spec.primary] * len(order)
    found: set[tuple[Value, ...]] = set()
    for binding in temporal_join(atoms, order, stores):
        if any(_atom_holds_negated(a, binding, spec) for a in negs):
            continue
        found.add(tuple(binding[name] for name in names))
    return found


def _atom_holds_negated(atom: Atom, binding, spec: RelationalSpec) -> bool:
    fact = _atom_fact(atom, binding)
    return spec.holds(fact)


def answers(query: Query, spec: RelationalSpec,
            method: str = "auto") -> AnswerSet:
    """All answers to an open query, as a finite :class:`AnswerSet`.

    Free temporal variables range over the representatives ``T`` and
    data variables over the active domain of ``B``; the rewrite system
    of the specification travels with the result so that the finite set
    denotes the full infinite answer set (Section 3.3).

    ``method`` selects the evaluation strategy: ``"enumerate"`` walks
    the cartesian product of the quantifier domains (works for every
    query; exponential in the number of free variables), ``"join"``
    computes conjunctive queries with the engine's join machinery
    (linear in the matching tuples; raises for unsupported shapes), and
    ``"auto"`` (default) joins when possible and falls back.
    """
    sorts = free_variables(query)
    names = sorted(sorts)
    variables = tuple((name, sorts[name]) for name in names)

    core = None
    if method in ("auto", "join"):
        core = _conjunctive_core(query)
        if core is None and method == "join":
            raise SortError(
                "the join strategy needs a conjunction of (possibly "
                "negated) atoms with offset-free temporal variables"
            )
    if core is not None:
        positive, negative = core
        found = _join_answers(positive, negative, names, spec)
        return AnswerSet(variables=variables,
                         substitutions=frozenset(found),
                         rewrites=spec.rewrites, b=spec.b, p=spec.p)

    domain = _SpecDomain(spec)
    axes = [
        domain.time_domain if sorts[name] == TIME else domain.data_domain
        for name in names
    ]
    found = set()
    for values in product(*axes):
        binding = dict(zip(names, values))
        if _evaluate(query, domain, binding):
            found.add(tuple(values))
    return AnswerSet(
        variables=variables,
        substitutions=frozenset(found),
        rewrites=spec.rewrites,
        b=spec.b,
        p=spec.p,
    )


# ---------------------------------------------------------------------------
# Query parser
# ---------------------------------------------------------------------------

_KEYWORDS = {"exists", "forall", "not", "and", "or", "implies"}

#: Deepest nesting :func:`parse_query` accepts.  Each ``not``, opening
#: parenthesis, quantified variable and ``implies`` adds a level, and
#: parsing and evaluation recurse a few frames per level, so the bound
#: keeps every accepted query well inside Python's recursion limit.
MAX_QUERY_DEPTH = 64


class _QueryParser:
    """Recursive-descent parser for the textual query syntax.

    Grammar (loosest binding first)::

        query   := ('exists'|'forall') Var (',' Var)* ':' query | implies
        implies := or ('implies' or)*        (right associative)
        or      := and ('or' and)*
        and     := unary ('and' unary)*
        unary   := 'not' unary | '(' query ')' | atom | term '=' term

    Quantifier sorts are inferred from variable use (``"auto"`` until
    the first evaluation resolves them).  Nesting past
    :data:`MAX_QUERY_DEPTH` is a :class:`ParseError`.
    """

    def __init__(self, tokens: list[Token], temporal_preds: frozenset[str]):
        self._tokens = tokens
        self._pos = 0
        self._temporal = temporal_preds
        self._depth = 0

    def _nest(self, tok: Token, levels: int = 1) -> None:
        """Enter ``levels`` nesting levels at ``tok``; the caller leaves
        them by decrementing ``_depth`` once the nested part is parsed."""
        self._depth += levels
        if self._depth > MAX_QUERY_DEPTH:
            raise ParseError(
                f"query nests deeper than {MAX_QUERY_DEPTH} levels",
                tok.line, tok.column)

    def _peek(self) -> Token:
        return self._tokens[self._pos]

    def _next(self) -> Token:
        tok = self._tokens[self._pos]
        self._pos += 1
        return tok

    def _expect_symbol(self, text: str) -> Token:
        tok = self._next()
        if tok.kind != "symbol" or tok.text != text:
            raise ParseError(f"expected {text!r}, got {tok.text!r}",
                             tok.line, tok.column)
        return tok

    def parse(self) -> Query:
        query = self._query()
        tok = self._peek()
        if tok.kind != "eof":
            raise ParseError(f"unexpected trailing input {tok.text!r}",
                             tok.line, tok.column)
        return query

    def _query(self) -> Query:
        tok = self._peek()
        if tok.kind == "ident" and tok.text in ("exists", "forall"):
            self._next()
            names = [self._variable()]
            while self._peek().kind == "symbol" and self._peek().text == ",":
                self._next()
                names.append(self._variable())
            self._expect_symbol(":")
            self._nest(tok, len(names))
            inner = self._query()
            self._depth -= len(names)
            for name in reversed(names):
                cls = Exists if tok.text == "exists" else Forall
                inner = cls(name, "auto", inner)
            return inner
        return self._implies()

    def _variable(self) -> str:
        tok = self._next()
        if tok.kind != "ident" or not is_variable_name(tok.text):
            raise ParseError(f"expected a variable, got {tok.text!r}",
                             tok.line, tok.column)
        return tok.text

    def _implies(self) -> Query:
        left = self._or()
        tok = self._peek()
        if tok.kind == "ident" and tok.text == "implies":
            self._next()
            self._nest(tok)
            right = self._implies()
            self._depth -= 1
            return Implies(left, right)
        return left

    def _or(self) -> Query:
        parts = [self._and()]
        while (self._peek().kind == "ident"
               and self._peek().text == "or"):
            self._next()
            parts.append(self._and())
        return parts[0] if len(parts) == 1 else Or(tuple(parts))

    def _and(self) -> Query:
        parts = [self._unary()]
        while (self._peek().kind == "ident"
               and self._peek().text == "and"):
            self._next()
            parts.append(self._unary())
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def _unary(self) -> Query:
        tok = self._peek()
        if tok.kind == "ident" and tok.text in ("exists", "forall"):
            # A quantifier inside a connective scopes greedily to the
            # right: "a and exists T: b and c" == "a and (exists T: (b
            # and c))"; parenthesise to narrow it.
            return self._query()
        if tok.kind == "ident" and tok.text == "not":
            self._next()
            self._nest(tok)
            inner = self._unary()
            self._depth -= 1
            return Not(inner)
        if tok.kind == "symbol" and tok.text == "(":
            self._next()
            self._nest(tok)
            inner = self._query()
            self._expect_symbol(")")
            self._depth -= 1
            return inner
        if tok.kind in ("int", "string") or (
                tok.kind == "ident" and tok.text not in _KEYWORDS):
            return self._atom_or_equality()
        raise ParseError(f"unexpected token {tok.text!r}",
                         tok.line, tok.column)

    def _term(self):
        """Parse a term: int, Var(+k), or constant.  Returns a tagged
        tuple ('time', TimeTerm) / ('data', Const|Var) / ('name', str)
        where 'name' is ambiguous until position is known."""
        tok = self._next()
        if tok.kind == "int":
            return ("int", int_value(tok))
        if tok.kind == "string":
            return ("data", Const(tok.text))
        if tok.kind != "ident":
            raise ParseError(f"expected a term, got {tok.text!r}",
                             tok.line, tok.column)
        if self._peek().kind == "symbol" and self._peek().text == "+":
            self._next()
            k = self._next()
            if k.kind != "int":
                raise ParseError(f"expected an offset, got {k.text!r}",
                                 k.line, k.column)
            if not is_variable_name(tok.text):
                raise ParseError(
                    f"{tok.text}+{k.text}: offsets apply to variables",
                    tok.line, tok.column)
            return ("time", TimeTerm(tok.text, int_value(k)))
        return ("name", tok.text)

    def _to_time(self, tagged, where: Token) -> TimeTerm:
        kind, value = tagged
        if kind == "time":
            return value
        if kind == "int":
            return TimeTerm(None, value)
        if kind == "name" and is_variable_name(value):
            return TimeTerm(value, 0)
        raise ParseError(
            f"expected a temporal term, got {value!r}",
            where.line, where.column)

    def _to_data(self, tagged, where: Token):
        kind, value = tagged
        if kind == "data":
            return value
        if kind == "int":
            return Const(value)
        if kind == "name":
            return Var(value) if is_variable_name(value) else Const(value)
        raise ParseError(
            f"temporal term {value} used in a data position",
            where.line, where.column)

    def _atom_or_equality(self) -> Query:
        start = self._peek()
        if start.kind == "ident" and self._tokens[self._pos + 1].kind == \
                "symbol" and self._tokens[self._pos + 1].text == "(":
            return self._atom()
        # term = term
        left = self._term()
        eq = self._next()
        if eq.kind != "symbol" or eq.text != "=":
            raise ParseError(f"expected '=', got {eq.text!r}",
                             eq.line, eq.column)
        right = self._term()
        time_like = (left[0] == "time" or right[0] == "time"
                     or left[0] == "int" or right[0] == "int")
        if time_like:
            return TimeEq(self._to_time(left, start),
                          self._to_time(right, start))
        return DataEq(self._to_data(left, start),
                      self._to_data(right, start))

    def _atom(self) -> Query:
        name = self._next()
        self._expect_symbol("(")
        terms = []
        positions = []
        positions.append(self._peek())
        terms.append(self._term())
        while self._peek().kind == "symbol" and self._peek().text == ",":
            self._next()
            positions.append(self._peek())
            terms.append(self._term())
        self._expect_symbol(")")
        if name.text in self._temporal:
            time = self._to_time(terms[0], positions[0])
            args = tuple(self._to_data(t, w)
                         for t, w in zip(terms[1:], positions[1:]))
            return AtomQ(Atom(name.text, time, args))
        args = tuple(self._to_data(t, w)
                     for t, w in zip(terms, positions))
        return AtomQ(Atom(name.text, None, args))


def parse_query(text: str,
                temporal_preds: frozenset[str] = frozenset()) -> Query:
    """Parse the textual query syntax.

    ``temporal_preds`` tells the parser which predicates carry a temporal
    first argument (available from ``ParsedProgram.temporal_preds`` or a
    :class:`~repro.core.tdd.TDD`).
    """
    return _QueryParser(tokenize(text), frozenset(temporal_preds)).parse()
