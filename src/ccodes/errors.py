"""Exception types shared across the library.

Everything except RankDeficiencyError and InvariantError subclasses
ValueError, so callers that only care about "bad input" can catch that.
Those two flag internal consistency failures and are RuntimeErrors.
"""


class NotPrimeError(ValueError):
    """The requested field characteristic is not a prime number."""


class DegreeRangeError(ValueError):
    """A degree parameter lies outside its valid range."""


class RankRangeError(ValueError):
    """A 1-based rank lies outside its valid range."""


class FieldMismatchError(ValueError):
    """Operands belong to different finite fields."""


class DimensionMismatchError(ValueError):
    """Objects disagree on their number of coordinates."""


class DuplicateLeadingTermError(ValueError):
    """Leading terms passed to the footprint bound must be distinct."""


class BudgetExceededError(ValueError):
    """An exhaustive oracle would exceed its configured work budget."""


class RankDeficiencyError(RuntimeError):
    """A matrix expected to have full row rank does not."""


class InvariantError(RuntimeError):
    """An internal consistency check failed; this is a bug."""
