"""Exception types shared across the toolkit, and the default of the one
resource cap the command line parser needs before any computation runs."""


class InputValidationError(ValueError):
    """Malformed or inconsistent user supplied data."""


class ResourceCapError(RuntimeError):
    """A computation would exceed a configured resource cap."""


# words of one cochain slice that hochschild enumerates before it refuses
DEFAULT_MAX_WORDS = 2_000_000


class TruncationError(InputValidationError):
    """A truncated computation cannot answer exactly; increase truncation."""


class ZeroGradedObjectError(InputValidationError):
    """An extreme degree of the zero object was requested."""


class NonExactResolutionError(InputValidationError):
    """A supplied resolution failed its exactness check."""

    def __init__(self, message, degree=None, position=None):
        super().__init__(message)
        self.degree = degree
        self.position = position
