"""Exception types shared across the package.

Plain ``ValueError`` is used for ordinary argument-contract violations;
the classes here mark the distinguished failure modes: resource budgets,
the partition-formula cap, and "the mathematics says this cannot happen"
conditions that indicate an implementation bug rather than bad input.
"""


class ResourceLimitError(RuntimeError):
    """A requested computation exceeds a configured memory or work budget."""


class PartitionCapError(ValueError):
    """The partition-sum formula was asked for an index above its cap."""


class InternalInconsistencyError(RuntimeError):
    """An invariant that is provably true was observed to fail.

    Raised e.g. when the power-series recurrence produces an inexact
    division, when an exact-rational sum that must be an integer is not,
    or when a representation that theory guarantees unique is duplicated.
    """
