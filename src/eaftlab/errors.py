"""Semantic exception hierarchy shared across the package."""


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


class DivergenceUndefinedError(EaftLabError, ValueError):
    """Raised when KL(p || q) is undefined because q has a zero where p > 0."""


class RecordValidationError(EaftLabError, ValueError):
    """Raised when a token record violates its field invariants."""


class RecordParseError(EaftLabError, ValueError):
    """Raised when a serialized record cannot be parsed; carries the line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ConfigError(EaftLabError, ValueError):
    """Raised for malformed run configuration documents."""
