"""Exception types shared across the package."""

__all__ = ["ArgumentError", "ParseError"]


class ArgumentError(ValueError):
    """Raised when a caller passes arguments violating a documented precondition."""


class ParseError(ValueError):
    """Raised on malformed input files; the message carries the 1-based line
    number of the fault when it has one."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
