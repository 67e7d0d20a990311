"""Exception types shared across the library.

Failures of *checked properties* (a relation that does not hold, a witness
that does not exist within a cap) are reported through return values, not
exceptions.  Exceptions are reserved for malformed inputs and for internal
invariants that should never break.
"""


class StrandCalcError(Exception):
    """Base class for all library errors."""


# --- f2 ---------------------------------------------------------------

class NotAComplex(StrandCalcError):
    """The two boundary maps do not compose to zero."""


# --- pointed matched circles ------------------------------------------

class MalformedMatching(StrandCalcError):
    """The given pairs do not partition the marked points."""


class DegenerateMatching(StrandCalcError):
    """Surgery on the matched pairs does not yield a single circle."""


# --- bimodules and morphisms ------------------------------------------

class UnknownSymbol(StrandCalcError):
    """A table refers to a basis element or generator that does not exist."""


class IdempotentMismatch(StrandCalcError):
    """A table output violates left-idempotent compatibility."""


class BimoduleMismatch(StrandCalcError):
    """Two structures that must share a bimodule do not."""


class NotClosed(StrandCalcError):
    """An operation required a closed morphism but received an unclosed one."""


class MiddleAlgebraMismatch(StrandCalcError):
    """Box tensor factors disagree on the shared middle algebra."""


# --- CLF calculus ------------------------------------------------------

class BoundaryMismatch(StrandCalcError):
    """Composition of expressions with incompatible boundary data."""


class NotInTwistForm(StrandCalcError):
    """A Hurwitz move was requested at leaves not in pure-twist form."""


class IncompatibleCycle(StrandCalcError):
    """A cycle label cannot be rewritten to the target label by conjugation."""


class AssignmentIncomplete(StrandCalcError):
    """An expression evaluation is missing a letter or leaf assignment."""


# --- document / CLI ----------------------------------------------------

class DocumentError(StrandCalcError):
    """Base class for text-format errors; carries a (line, column) location."""

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column

    def __str__(self):
        base = super().__str__()
        if self.line is not None:
            return f"line {self.line}, col {self.column}: {base}"
        return base


class ParseError(DocumentError):
    """Input text does not match the grammar."""


class DuplicateName(DocumentError):
    """Two declarations share a name."""


class UnresolvedReference(DocumentError):
    """A declaration refers to a name that was never declared."""
