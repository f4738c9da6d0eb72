"""Exception types shared across the package."""


class ResourceLimitError(RuntimeError):
    """An enumeration or count would exceed a configured output cap."""


class FactorizationLimitError(RuntimeError):
    """The integer is above 64-bit range (2^63 - 1)."""


class NotSquarefreeError(ValueError):
    """Raised when a squarefree integer was required."""


class SearchBudgetExceeded(RuntimeError):
    """A search ran out of its node budget before resolving.

    Distinct from a definite "no such object" answer, which is reported
    as None by the search functions.
    """


class CapacityOverflowError(OverflowError):
    """A value left the 64-bit range enforced at an interface boundary."""
