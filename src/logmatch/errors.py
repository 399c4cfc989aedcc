"""Exception types shared across the package, and its one integer check."""

import numpy as np


class LogmatchError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(LogmatchError, ValueError):
    """An argument violates a documented precondition or invariant."""


class NumericalError(LogmatchError, RuntimeError):
    """An iterative numerical procedure failed to converge or produced garbage."""


class ParseError(LogmatchError, ValueError):
    """A file could not be parsed. Carries the offending location."""

    def __init__(self, path, message, line=None):
        self.path = str(path)
        self.line = line
        self.message = message
        where = self.path if line is None else f"{self.path}:{line}"
        super().__init__(f"{where}: {message}")

    def __reduce__(self):
        # Rebuild from the constructor's own arguments; the default would
        # pass only the formatted message. Worker errors cross processes
        # by pickling.
        return (type(self), (self.path, self.message, self.line))


def _integer(name: str, value: object, low: int, high: int | None = None) -> int:
    """value as an int in [low, high): a Python or numpy integer, not a bool or float."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidInputError(f"{name} must be an integer, got {value!r}")
    if not (low <= value and (high is None or value < high)):
        bound = f">= {low}" if high is None else f"in [{low}, {high})"
        raise InvalidInputError(f"{name} must be {bound}, got {value!r}")
    return int(value)
