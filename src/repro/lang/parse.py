"""Parser for the paper's rule syntax.

The concrete syntax follows the paper's examples::

    plane(T+7, X) :- plane(T, X), resort(X), offseason(T).
    even(T+2) :- even(T).
    even(0).
    edge(a, b).
    winter(84..174).          % interval fact (footnote 1 of the paper)
    @temporal null.           % optional explicit sort declaration

Conventions:

* identifiers starting with an upper-case letter (or ``_``) are variables,
  everything else is a constant;
* an integer or a ``Var+k`` expression in the first argument marks the
  predicate as temporal; temporality also propagates through shared
  variables (see :mod:`repro.lang.sorts`);
* ``a..b`` intervals are allowed only in the temporal argument of facts
  and expand to one fact per timepoint, mirroring the paper's footnote 1;
* comments run from ``%`` or ``#`` to end of line.

Parsing is two-phase: this module produces a *raw* token-level AST, and
:mod:`repro.lang.sorts` resolves predicate temporality and converts raw
clauses into :class:`~repro.lang.rules.Rule` and
:class:`~repro.lang.atoms.Fact` objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from .errors import ParseError

# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_SYMBOLS = (":-", "..", "(", ")", ",", ".", "+", "@", "/", ":", "=")

# Tokens and the raw AST below are plain slotted records, not frozen
# dataclasses: a parse builds one per token and term, and a frozen
# dataclass costs about three times as much to construct.  Nothing
# hashes them or keeps them past sort resolution.


@dataclass(slots=True)
class Token:
    kind: str  # 'ident', 'int', 'string', 'symbol', 'eof'
    text: str
    line: int
    column: int


def tokenize(text: str) -> list[Token]:
    """Split program text into tokens; raises :class:`ParseError`."""
    tokens: list[Token] = []
    i = 0
    line = 1
    line_start = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            i += 1
            line_start = i
            continue
        if ch in " \t\r":
            i += 1
            continue
        if ch in "%#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        col = i - line_start + 1
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            # Guard against '12..34': the digits stop before the dots.
            tokens.append(Token("int", text[i:j], line, col))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("ident", text[i:j], line, col))
            i = j
            continue
        if ch in "'\"":
            quote = ch
            j = i + 1
            while j < n and text[j] != quote:
                if text[j] == "\n":
                    raise ParseError("unterminated string", line, col)
                j += 1
            if j >= n:
                raise ParseError("unterminated string", line, col)
            tokens.append(Token("string", text[i + 1:j], line, col))
            i = j + 1
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                # '.' followed by '.' is handled by the '..' entry first.
                tokens.append(Token("symbol", sym, line, col))
                i += len(sym)
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("eof", "", line, n - line_start + 1))
    return tokens


def int_value(tok: Token) -> int:
    """The value of an ``int`` token, as a located :class:`ParseError`
    when it has more digits than Python converts."""
    try:
        return int(tok.text)
    except ValueError:
        raise ParseError(f"integer of {len(tok.text)} digits is too long",
                         tok.line, tok.column) from None


# ---------------------------------------------------------------------------
# Raw AST
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class RawTerm:
    """A term as parsed, before sort resolution.

    ``kind`` is one of ``'int'``, ``'interval'``, ``'name'``, ``'plus'``,
    ``'string'``.  ``value`` holds the int / ``(lo, hi)`` pair / name /
    ``(name, k)`` pair / string respectively.  ``line``/``column`` are the
    1-based source position of the term's first token.
    """

    kind: str
    value: object
    line: int
    column: int = 0


@dataclass(slots=True)
class RawAtom:
    pred: str
    terms: tuple[RawTerm, ...]
    line: int
    negated: bool = False
    column: int = 0
    end_column: int = 0  # exclusive; 0 when unknown


@dataclass(slots=True)
class RawClause:
    head: RawAtom
    body: tuple[RawAtom, ...]
    line: int
    column: int = 0

    @property
    def is_fact(self) -> bool:
        return not self.body


@dataclass(slots=True)
class RawProgram:
    clauses: list[RawClause] = field(default_factory=list)
    temporal_decls: set[str] = field(default_factory=set)
    nontemporal_decls: set[str] = field(default_factory=set)


class _Parser:
    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._pos = 0

    def _peek(self) -> Token:
        return self._tokens[self._pos]

    def _next(self) -> Token:
        tok = self._tokens[self._pos]
        self._pos += 1
        return tok

    def _expect(self, kind: str, text: Union[str, None] = None) -> Token:
        tok = self._next()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            raise ParseError(f"expected {want!r}, got {tok.text!r}",
                             tok.line, tok.column)
        return tok

    def program(self) -> RawProgram:
        prog = RawProgram()
        while self._peek().kind != "eof":
            if self._peek().kind == "symbol" and self._peek().text == "@":
                self._declaration(prog)
            else:
                prog.clauses.append(self._clause())
        return prog

    def _declaration(self, prog: RawProgram) -> None:
        self._expect("symbol", "@")
        keyword = self._expect("ident")
        name = self._expect("ident").text
        if self._peek().kind == "symbol" and self._peek().text == "/":
            self._next()
            self._expect("int")  # arity accepted for documentation only
        self._expect("symbol", ".")
        if keyword.text == "temporal":
            prog.temporal_decls.add(name)
        elif keyword.text == "nontemporal":
            prog.nontemporal_decls.add(name)
        else:
            raise ParseError(f"unknown declaration @{keyword.text}",
                             keyword.line, keyword.column)

    def _clause(self) -> RawClause:
        head = self._atom()
        body: list[RawAtom] = []
        tok = self._peek()
        if tok.kind == "symbol" and tok.text == ":-":
            self._next()
            body.append(self._literal())
            while self._peek().kind == "symbol" and self._peek().text == ",":
                self._next()
                body.append(self._literal())
        self._expect("symbol", ".")
        return RawClause(head, tuple(body), head.line, column=head.column)

    def _literal(self) -> RawAtom:
        """A body literal: an atom, optionally prefixed with ``not``.

        Negation is this library's stratified-semantics extension; the
        paper's rules are definite.
        """
        tok = self._peek()
        if tok.kind == "ident" and tok.text == "not":
            self._next()
            atom = self._atom()
            return RawAtom(atom.pred, atom.terms, atom.line,
                           negated=True, column=atom.column,
                           end_column=atom.end_column)
        return self._atom()

    def _atom(self) -> RawAtom:
        name = self._expect("ident")
        end = name.column + len(name.text)
        terms: list[RawTerm] = []
        if self._peek().kind == "symbol" and self._peek().text == "(":
            self._next()
            terms.append(self._term())
            while self._peek().kind == "symbol" and self._peek().text == ",":
                self._next()
                terms.append(self._term())
            close = self._expect("symbol", ")")
            if close.line == name.line:
                end = close.column + 1
        return RawAtom(name.text, tuple(terms), name.line,
                       column=name.column, end_column=end)

    def _term(self) -> RawTerm:
        tok = self._next()
        if tok.kind == "int":
            lo = int_value(tok)
            if self._peek().kind == "symbol" and self._peek().text == "..":
                self._next()
                hi_tok = self._expect("int")
                hi = int_value(hi_tok)
                if hi < lo:
                    raise ParseError(f"empty interval {lo}..{hi}",
                                     tok.line, tok.column)
                return RawTerm("interval", (lo, hi), tok.line, tok.column)
            return RawTerm("int", lo, tok.line, tok.column)
        if tok.kind == "string":
            return RawTerm("string", tok.text, tok.line, tok.column)
        if tok.kind == "ident":
            if self._peek().kind == "symbol" and self._peek().text == "+":
                self._next()
                k_tok = self._expect("int")
                return RawTerm("plus", (tok.text, int_value(k_tok)),
                               tok.line, tok.column)
            return RawTerm("name", tok.text, tok.line, tok.column)
        raise ParseError(f"expected a term, got {tok.text!r}",
                         tok.line, tok.column)


def parse_raw(text: str) -> RawProgram:
    """Parse program text to the raw (sort-unresolved) AST."""
    return _Parser(tokenize(text)).program()


def is_variable_name(name: str) -> bool:
    """Prolog-style convention: variables start upper-case or with '_'."""
    return bool(name) and (name[0].isupper() or name[0] == "_")
