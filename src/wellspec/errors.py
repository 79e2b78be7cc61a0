"""Exception types shared across the package."""


class PositionOutOfRange(ValueError):
    """Delta-function position on or outside a wall."""


class DomainError(ValueError):
    """Evaluation point outside the well."""


class InconsistentState(ValueError):
    """An eigenstate does not certify against the configuration it claims."""


class SolverFailure(RuntimeError):
    """A root bracket failed to converge; carries the offending bracket."""

    def __init__(self, message: str, bracket: tuple[float, float] | None = None):
        super().__init__(message)
        self.bracket = bracket


class ConvergenceFailure(SolverFailure):
    """The oracle's eigensolver cannot deliver the requested levels."""
