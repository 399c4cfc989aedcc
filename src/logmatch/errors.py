"""Exception types shared across the package, and its checks of public
arguments: counts and indices (_integer), reals (_real), flags (_flag),
objects of one class (_instance), configs that default when None
(_config), sequences (_items) and arrays (_array). Each returns the value
as the type it stands for."""

import math
from collections.abc import Callable, Iterable

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
        # Rebuild from the constructor's own arguments, so that a pickled
        # error keeps its path and line; the default would pass only the
        # formatted message.
        return (type(self), (self.path, self.message, self.line))


def _integer(name: str, value: object, low: int, high: int | None = None) -> int:
    """value as an int in [low, high): a Python or numpy integer, not a bool or float."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidInputError(f"{name} must be an integer, got {value!r}")
    if not (low <= value and (high is None or value < high)):
        bound = f">= {low}" if high is None else f"in [{low}, {high})"
        raise InvalidInputError(f"{name} must be {bound}, got {value!r}")
    return int(value)


def _real(name: str, value: object, low: float = -math.inf, high: float = math.inf,
          strict: bool = False) -> float:
    """value as a finite float in [low, high], or in (low, high) when strict:
    a Python or numpy real, not a bool or a string."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise InvalidInputError(f"{name} must be a real number, got {value!r}")
    real = float(value)
    if not (math.isfinite(real) and (low < real < high if strict else low <= real <= high)):
        if high < math.inf:
            bound = f"in {'(' if strict else '['}{low:g}, {high:g}{')' if strict else ']'}"
        else:
            bound = "finite" if low == -math.inf else f"finite and {'>' if strict else '>='} {low:g}"
        raise InvalidInputError(f"{name} must be {bound}, got {value!r}")
    return real


def _flag(name: str, value: object) -> bool:
    """value as a bool: a Python bool or a numpy bool_."""
    if not isinstance(value, (bool, np.bool_)):
        raise InvalidInputError(f"{name} must be a bool, got {value!r}")
    return bool(value)


def _instance(name: str, value: object, cls: type) -> object:
    """value, which must be an instance of cls."""
    if not isinstance(value, cls):
        article = "an" if cls.__name__[0] in "AEIO" else "a"  # a UnitQuaternion, an IcpConfig
        raise InvalidInputError(f"{name} must be {article} {cls.__name__}, got {type(value).__name__}")
    return value


def _config(cfg: object, cls: type) -> object:
    """cfg, which must be an instance of cls, or cls() when it is None."""
    return cls() if cfg is None else _instance("cfg", cfg, cls)


def _items(name: str, values: object, check: type | Callable[[object], object]) -> tuple:
    """values as a tuple: any iterable but a str or bytes, generators and
    numpy arrays included. check is a class, of which every item must be an
    instance, or a function that returns each item checked; a TypeError or
    ValueError that it raises on an item (one that does not unpack, say) is
    refused in the name of values."""
    kind = f" of {check.__name__}" if isinstance(check, type) else ""
    # A 0-d numpy array is Iterable by its type, but iterating it fails.
    if isinstance(values, (str, bytes)) or not isinstance(values, Iterable) or getattr(values, "ndim", 1) == 0:
        raise InvalidInputError(f"{name} must be a sequence{kind}, got {type(values).__name__}")
    if kind:
        return tuple(_instance(f"{name}[{k}]", item, check) for k, item in enumerate(values))
    try:
        return tuple(map(check, values))
    except LogmatchError:
        raise
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"{name} holds a malformed item: {exc}") from None


# The cells each array dtype takes, and their name in messages.
_CELLS = {np.int64: ("integers", (int, np.integer)), np.float64: ("reals", (int, float, np.integer, np.floating))}


def _array(name: str, value: object, dtype: type, *shape: int | None) -> np.ndarray:
    """value as a new read-only, C-ordered array of dtype (np.int64 or
    np.float64) whose shape is shape, None standing for any length: an array
    or nested sequence of integers, or of integers and reals for float64.
    Bools, strings, other objects and ragged sequences are refused."""
    kind, numbers = _CELLS[dtype]
    if not isinstance(value, np.ndarray):
        # Each cell as given, so that a bool or a string is seen before it converts.
        value = np.array(value, dtype=object)
        for cell in value.flat:
            if isinstance(cell, bool) or not isinstance(cell, numbers):
                raise InvalidInputError(f"{name} must be a rectangular array of {kind}, got {cell!r}")
    elif value.dtype.kind == "b" or not np.can_cast(value.dtype, dtype):
        raise InvalidInputError(f"{name} must be an array of {kind}, got an array of {value.dtype}")
    try:
        array = value.astype(dtype, order="C")
    except OverflowError:
        raise InvalidInputError(f"{name} holds a value beyond {np.dtype(dtype)}") from None
    if array.ndim != len(shape) or any(want not in (None, got) for want, got in zip(shape, array.shape)):
        raise InvalidInputError(f"{name} must have shape {shape} (None for any length), got {array.shape}")
    array.setflags(write=False)
    return array
