"""Exception types shared across the package."""


class DeltanError(Exception):
    """Base class for all errors raised by this package."""


class InvalidSpecError(DeltanError):
    """A ring/module specification violates its invariants."""


class CrossRingError(DeltanError):
    """An operand of another ring, or not of the kind the call takes."""


class InfiniteRingError(DeltanError):
    """An enumeration was requested on the infinite integer backend."""


class ImproperIdealError(DeltanError):
    """A predicate defined only for proper ideals was applied to the whole ring."""


class HomomorphismError(DeltanError):
    """A map fails a ring-homomorphism axiom, or is unfit for the operation."""


class ConstructionError(DeltanError):
    """A derived-ring construction was given invalid data (e.g. IM not in N)."""


class UnknownClaimError(DeltanError):
    """A claim id is not present in the registry."""


class DslError(DeltanError):
    """Syntax or binding error in the little specification language; a syntax
    error carries its line and column, a binding error has no source position."""

    def __init__(self, message, line=None, column=None, expected=()):
        super().__init__(message)
        self.line = line
        self.column = column
        self.expected = tuple(expected)

    def __str__(self):
        base = super().__str__()
        if self.line is not None:
            base += f" at {self.line}:{self.column}"
        if self.expected:
            base += f" (expected one of: {', '.join(self.expected)})"
        return base
