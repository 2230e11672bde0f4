"""Exception types shared across the package, and the type check of a numeric field."""
import numbers


class ConfigurationError(ValueError):
    """Invalid configuration: bad dimensions, ranges, or parameter ordering."""


class ScenarioError(ConfigurationError):
    """A scenario file failed to parse or validate."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class DivergenceError(RuntimeError):
    """A rollout produced a non-finite state."""


class HypothesisViolationError(ValueError):
    """A construction's standing hypothesis does not hold for these parameters."""


def require_number(key: str, val) -> None:
    """Refuse a value that is not a real number, such as a string built in
    code, with a ConfigurationError naming ``key``, before a range check
    would fail on it with a bare TypeError."""
    if not isinstance(val, numbers.Real):
        raise ConfigurationError(f"{key} must be a number, got {val!r}")
