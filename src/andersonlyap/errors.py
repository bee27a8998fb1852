"""Exception types shared across the package.

The CLI maps these onto process exit codes (parameter errors -> 2,
convergence failures -> 3), so library code should raise these rather
than bare ValueError/RuntimeError for user-facing failure modes.
"""

__all__ = ["ParameterError", "ConvergenceError"]


class ParameterError(ValueError):
    """An argument is outside the domain an operation is defined on."""


class ConvergenceError(RuntimeError):
    """An iterative solver ran out of iterations.

    Carries the last residual so callers can report how far off it was.
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual
