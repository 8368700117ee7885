"""Exception types shared across the library.

Bad input raises a plain ValueError whose message names the offending
value.  BudgetExceededError is the one ValueError subclass: verify
catches it to record a check as skipped.  InvariantError flags an
internal consistency failure and is a RuntimeError.
"""


class BudgetExceededError(ValueError):
    """An exhaustive oracle would exceed its configured work budget."""


class InvariantError(RuntimeError):
    """An internal consistency check failed; this is a bug."""
