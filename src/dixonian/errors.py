"""Exception types shared across the library."""


class DixonError(Exception):
    """Base class for library-specific failures."""


class PoleError(DixonError):
    """A finite value was requested at a pole of sm/cm."""

    def __init__(self, pole_rep: complex):
        super().__init__(f"argument is at a pole (lattice representative {pole_rep})")
        self.pole_rep = pole_rep


class DegenerateDenominatorError(DixonError):
    """An identity denominator fell below the degeneracy threshold."""


class ConvergenceError(DixonError):
    """An iterative scheme failed to reach the requested tolerance.

    ``residual`` carries the best error estimate achieved.
    """

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual
