"""Exception types shared across the package, and the integer check that
raises one."""

import numbers

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


def check_integer(value, name, low):
    """ArgumentError naming ``name`` unless ``value`` is a Python or numpy
    integer of at least ``low``; a bool is refused, as
    `kernels._checked_order` refuses one."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < low):
        raise ArgumentError(f"{name} must be an integer >= {low}, "
                            f"not {value!r}")
