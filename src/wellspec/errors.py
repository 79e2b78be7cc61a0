"""Exception types shared across the package."""


class PositionOutOfRange(ValueError):
    """Delta-function position on or outside a wall."""


class DomainError(ValueError):
    """Evaluation point outside the well."""


class InconsistentState(ValueError):
    """An eigenstate does not certify against the configuration it claims."""


class SolverFailure(RuntimeError):
    """A level could not be delivered certified; the message says which and why."""


class ConvergenceFailure(SolverFailure):
    """The oracle's eigensolver cannot deliver the requested levels."""
