"""Exception types shared across the package."""


class PerturbAlgError(Exception):
    """Base class for all library errors."""


class RingMismatchError(PerturbAlgError):
    """Two values from incompatible rings (generators or truncation differ)."""


class NonUnitError(PerturbAlgError):
    """Inversion or division required a unit (valuation 0) and got none."""


class DomainError(PerturbAlgError):
    """An input violates an operation's domain precondition."""


class DegenerateError(DomainError):
    """A leading term vanished; a higher-order analysis is required."""


class UnsupportedOrderError(DomainError):
    """A Newton-polygon edge with a point inside, other than a double root's balance."""


class OracleError(PerturbAlgError):
    """The numeric oracle failed to converge or was inconclusive."""


class ParseError(PerturbAlgError):
    """Syntax or symbol error in an input expression.

    Carries the 0-based offset of the offending token, counted in code
    points of the text (not bytes), plus line and column for display.
    """

    def __init__(self, message, offset=None, line=None, column=None):
        super().__init__(message)
        self.offset = offset
        self.line = line
        self.column = column

    def __str__(self):
        base = super().__str__()
        if self.line is not None:
            return f"{base} (line {self.line}, column {self.column})"
        return base
