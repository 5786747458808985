"""Exception types shared across the package."""


class OrdelicError(Exception):
    """Base class for all package-specific failures."""


class SpecError(OrdelicError):
    """Malformed input: property spec, scenario, dataset, or config."""


class SimplexError(OrdelicError):
    """Vector is not a probability distribution within tolerance."""


class RankDeficiencyError(OrdelicError):
    """Boundary samples do not span the expected hyperplane."""


class OrderabilityError(OrdelicError):
    """Input violates (strong) orderability: misordered regions, zero gaps."""


class DegenerateRangeError(OrdelicError):
    """Property range has zero length; normalization or diameter undefined."""


class SearchFailure(OrdelicError):
    """No counterexample: C is at least the exact Lipschitz constant, or too
    close to it to certify a pair."""
