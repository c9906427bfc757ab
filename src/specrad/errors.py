"""Error types shared across the package."""


class NotConvergent(RuntimeError):
    """No probed power provided a convergence certificate."""


class BudgetExceeded(RuntimeError):
    """A configured work limit was hit before the target tolerance."""


class Singular(RuntimeError):
    """A direct solve found the operand noninvertible."""
