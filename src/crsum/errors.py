"""Exception types shared across the package."""


class CrsumError(Exception):
    """Base class for all package-specific errors."""


class ConfigurationError(CrsumError, ValueError):
    """Invalid model, budget, or experiment configuration."""


class UsageError(CrsumError, ValueError):
    """An operation was called outside its supported domain."""


class UnboundedSubproblemError(CrsumError):
    """A per-state Lagrangian subproblem has unbounded value.

    Raised when a user with a positive direct gain faces a zero
    effective price, so the per-state objective grows without limit.
    The offending (state, user) pair is attached so a dual-domain cut
    can be generated by the caller.
    """

    def __init__(self, message, state_index=None, user_index=None):
        super().__init__(message)
        self.state_index = state_index
        self.user_index = user_index


class SolverFailureError(CrsumError):
    """A solver or an audit could not certify its result.

    Carries the residual or violation that failed, for diagnosis (None
    when a simplex ran out of pivots or met an unbounded program).
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class ConvergenceFailureError(CrsumError):
    """The dual loop stopped without meeting its accuracy targets."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report
