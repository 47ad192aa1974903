"""Exception hierarchy for the repro library.

All library errors derive from :class:`ReproError` so callers can catch one
base class.  Each subclass corresponds to one phase of processing: parsing,
sort inference, static validation, or evaluation.  The static-phase errors
(parse, sort, validation) optionally carry a 1-based source line and
column, which the CLI uses to render ``file:line:col`` messages with a
caret-underlined excerpt (see :mod:`repro.analysis.render`).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class LocatedError(ReproError):
    """A static error that knows where in the source text it occurred.

    ``line`` and ``column`` are 1-based and ``None`` when unknown (e.g.
    for programmatically constructed rules).  The location is folded into
    the message for plain ``str()`` consumers.
    """

    def __init__(self, message: str, line: int | None = None,
                 column: int | None = None):
        self.line = line
        self.column = column
        self.bare_message = message
        if line is not None:
            message = f"line {line}" + (
                f", column {column}" if column is not None else ""
            ) + f": {message}"
        super().__init__(message)


class ParseError(LocatedError):
    """Raised when program text cannot be parsed.

    Carries the 1-based line and column of the offending token when known.
    """


class SortError(LocatedError):
    """Raised when predicate/variable temporal sorts cannot be reconciled.

    Examples: a variable used both as a temporal and a data argument, or a
    predicate used with inconsistent arity or temporality.
    """


class ValidationError(LocatedError):
    """Raised when a rule or database violates the paper's restrictions.

    The main restrictions (Section 3.1 of the paper) are: rules must be
    range-restricted, temporal terms may appear only in the distinguished
    temporal argument, and database facts must be ground.
    """


class EvaluationError(ReproError):
    """Raised when bottom-up evaluation cannot complete.

    Typical causes: an explicit horizon too small to certify a period, or a
    resource cap (maximum horizon / fact count) being exceeded.
    """


class DeadlineExceeded(EvaluationError):
    """Raised when a deadline passes before BT's next deepening pass, or
    while the query service waits on another computation of a program."""


class ClassificationError(ReproError):
    """Raised when a classifier's preconditions are not met.

    Example: asking for the Theorem 6.3 one-period bound of a ruleset that
    is not reduced time-only, or exceeding the skeleton-database cap.
    """
