"""Semantic exception hierarchy shared across the package, and the field checks that raise it."""

import numpy as np


class EaftLabError(Exception):
    """Base class for all package-specific errors."""


class InvalidInputError(EaftLabError, ValueError):
    """Raised when numeric input is malformed (non-finite, empty, wrong shape)."""


class InvalidArgumentError(EaftLabError, ValueError):
    """Raised when an argument is outside its documented domain."""


class NonFiniteLogitsError(InvalidInputError):
    """Raised when a forward pass yields non-finite logits (diverged parameters)."""


class TrainingDivergedError(EaftLabError, RuntimeError):
    """Raised when training drives the parameters to non-finite logits; carries the step."""

    def __init__(self, message: str, step: int):
        super().__init__(f"parameters diverged at step {step}: {message}")
        self.step = step


class DegenerateVarianceError(EaftLabError, ValueError):
    """Raised when a statistic requires variance but the input is constant."""


class RecordValidationError(EaftLabError, ValueError):
    """Raised when a token record violates its field invariants; carries the
    record's row in its table, if known."""

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message if row is None else f"record {row}: {message}")
        self.message = message
        self.row = row


class RecordParseError(EaftLabError, ValueError):
    """Raised when a serialized record cannot be parsed; carries the line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ConfigError(EaftLabError, ValueError):
    """Raised for malformed run configuration documents."""


def is_int(value) -> bool:
    """True for an integer; a bool is not one, and a float is never taken as one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_real(value) -> bool:
    """True for a real number that is not a bool."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def check_ints(obj, minimum: int, *names: str) -> None:
    """Reject a field of ``obj`` that is not an integer >= ``minimum``; the
    message starts with the field name."""
    for name in names:
        value = getattr(obj, name)
        if not is_int(value) or value < minimum:
            raise InvalidArgumentError(f"{name} must be an integer >= {minimum}, got {value!r}")


def check_reals(obj, interval: str, *names: str) -> None:
    """Reject a field of ``obj`` that is not a real number in ``interval``,
    written like "[0, 1]" or "(0, inf)" (a parenthesis is an open end); the
    message starts with the field name."""
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    for name in names:
        value = getattr(obj, name)
        if not (
            is_real(value)
            and (lo <= value if interval[0] == "[" else lo < value)
            and (value <= hi if interval[-1] == "]" else value < hi)
        ):
            raise InvalidArgumentError(f"{name} must be a number in {interval}, got {value!r}")
