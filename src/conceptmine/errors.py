"""Exception types shared across the package."""


class ParseError(ValueError):
    """Malformed input data. Carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class CapacityError(RuntimeError):
    """A requested computation exceeds a configured size bound."""


class PruningSoundnessError(RuntimeError):
    """A pruning rule suppressed a call that would have passed the canonicity test."""


class DigestMismatchError(RuntimeError):
    """Two engines produced different concept sets on the same input."""
