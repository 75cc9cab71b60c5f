"""Exception types shared across the package; the CLI exits 2 on the first two, 3 on the rest."""


class InvalidInputError(ValueError):
    """User-supplied input is refused (bad n/r, malformed file, n above a size guard, ...)."""


class AttemptsExhaustedError(RuntimeError):
    """Rejection sampling gave up after the configured number of attempts."""


class IntegrationError(RuntimeError):
    """A phase of the trajectory system failed before its event fired: the
    z_M floor, an undefined phase-2 mixture, an overflow, or an event that
    bisection could not locate. ``x`` and ``state`` say where, when known."""

    def __init__(self, message, x=None, state=None):
        super().__init__(message)
        self.x = x
        self.state = state


class InvariantViolationError(RuntimeError):
    """An internal consistency check failed; indicates a bug, not bad input."""
