"""Exception types shared across the package."""


class InvalidInputError(ValueError):
    """A precondition on user-supplied input is violated (bad n/r, malformed file, ...)."""


class SizeGuardError(ValueError):
    """An exact oracle was asked to run above its search's size guard."""


class AttemptsExhaustedError(RuntimeError):
    """Rejection sampling gave up after the configured number of attempts."""


class SingularityError(RuntimeError):
    """The scaled unrevealed-point count dropped below its positivity floor."""


class BlendDegenerateError(RuntimeError):
    """The phase-2 operation mixture is undefined (tau <= 0 or tau + alpha <= 0)."""

    def __init__(self, message, x=None, state=None):
        super().__init__(message)
        self.x = x
        self.state = state


class EventNotFoundError(RuntimeError):
    """Integration ended (floor / step cap) before the phase-end event fired."""


class InvariantViolationError(RuntimeError):
    """An internal consistency check failed; indicates a bug, not bad input."""
