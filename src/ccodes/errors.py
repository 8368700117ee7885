"""Exception types shared across the library.

Bad input raises a plain ValueError whose message names the offending
value.  BudgetExceededError is the one ValueError subclass: verify
catches it to record a check as skipped.  RankDeficiencyError and
InvariantError flag internal consistency failures and are RuntimeErrors.
"""


class BudgetExceededError(ValueError):
    """An exhaustive oracle would exceed its configured work budget."""


class RankDeficiencyError(RuntimeError):
    """A matrix expected to have full row rank does not."""


class InvariantError(RuntimeError):
    """An internal consistency check failed; this is a bug."""
