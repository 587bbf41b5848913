"""Exception types shared across the package.

Plain ``ValueError`` is used for ordinary argument-contract violations;
the classes here mark the distinguished failure modes: resource budgets,
the partition-formula cap, and "the mathematics says this cannot happen"
conditions that indicate an implementation bug rather than bad input.

Every budget wall (the sieve, the tables, the class-group cells and the
representation scans, whole and per chunk) raises through
``check_budget``, checked before the work it guards starts.
"""


class ResourceLimitError(RuntimeError):
    """A requested computation exceeds a configured memory or work budget."""


def check_budget(need: int, budget: int, what: str, *args) -> None:
    """Raise ResourceLimitError("<what>, budget is <budget>") when need > budget.

    `what` is a `str.format` template filled from `args`, with `{need}` for
    the need itself.  It is formatted only when the check fails, so a check
    that passes builds no message.
    """
    if need > budget:
        raise ResourceLimitError(f"{what.format(*args, need=need)}, budget is {budget}")


class PartitionCapError(ValueError):
    """The partition-sum formula was asked for an index above its cap."""


class InternalInconsistencyError(RuntimeError):
    """An invariant that is provably true was observed to fail.

    Raised e.g. when the power-series recurrence produces an inexact
    division, when the partition sum (n! times each term, summed in
    integers) is not divisible by n!, or when a representation that
    theory guarantees unique is duplicated.
    """
