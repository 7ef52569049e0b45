"""Exception hierarchy shared by all gmk modules.

The CLI maps these onto exit codes: input errors exit with 2, exceeded
enumeration or search budgets with 3, and contract violations (a solver or
report breaking one of its own postconditions) with 4.
"""


class GmkError(Exception):
    exit_code = 1


class InputError(GmkError):
    """Malformed or out-of-contract input (bad file, invalid instance, bad range)."""

    exit_code = 2


class UnsupportedVariantError(InputError):
    """Operation called on the wrong problem variant (modular vs submodular)."""


class BudgetExceededError(GmkError):
    """A configured enumeration or DP work budget would be exceeded.

    A packer's node budget raises nothing: a check it stops counts as unpackable.
    """

    exit_code = 3


class ContractViolationError(GmkError):
    """An internal invariant that should hold by construction failed at runtime."""

    exit_code = 4
