"""Exception types shared across the package."""


class OrdelicError(Exception):
    """Base class for all package-specific failures."""


class SpecError(OrdelicError):
    """Malformed input: property spec, scenario, dataset, or config."""


class SimplexError(OrdelicError):
    """Vector is not a probability distribution within tolerance.  For a
    batch, ``row`` is the index of the first row at fault and ``reason``
    what is wrong with it."""

    def __init__(self, reason: str, row: int | None = None):
        super().__init__(reason if row is None else f"row {row}: {reason}")
        self.reason, self.row = reason, row


class OrderabilityError(OrdelicError):
    """Input violates (strong) orderability: misordered regions, zero gaps."""


class DegenerateRangeError(OrdelicError):
    """Property range has zero length; normalization or diameter undefined."""


class SearchFailure(OrdelicError):
    """No counterexample: C is at least the exact Lipschitz constant, or too
    close to it to certify a pair."""
